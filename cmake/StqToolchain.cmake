# Correctness-tooling knobs: warnings, sanitizers, clang-tidy, and the
# invariant-check macro. Included from the top-level CMakeLists.
#
#   -DSTQ_WERROR=ON                     promote warnings to errors (CI default)
#   -DSTQ_SANITIZE=address,undefined    or: thread  (gcc and clang)
#   -DSTQ_CLANG_TIDY=ON                 run clang-tidy alongside compilation
#   -DSTQ_ENABLE_INVARIANT_CHECKS=ON    compile in STQ_DCHECK and the
#                                       expensive audit tier
#   -DSTQ_LIBFUZZER=ON                  clang-only: coverage-guided fuzzers

option(STQ_WERROR "Treat compiler warnings as errors" OFF)
option(STQ_CLANG_TIDY "Run clang-tidy on every translation unit" OFF)
option(STQ_ENABLE_INVARIANT_CHECKS
       "Enable STQ_DCHECK and expensive invariant audits" OFF)
option(STQ_LIBFUZZER
       "Build fuzz harnesses against libFuzzer (requires clang)" OFF)
option(STQ_ALLOC_COUNTING
       "Replace global operator new with a counting wrapper so TickStats \
reports heap allocations per tick" ON)
set(STQ_SANITIZE "" CACHE STRING
    "Comma/semicolon-separated sanitizers: address, undefined, thread, leak")

add_compile_options(-Wall -Wextra)
if(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  # Capability analysis over the stq::Mutex annotations (common/mutex.h,
  # common/annotations.h). Clang-only; the dedicated CI leg builds with
  # clang + STQ_WERROR so violations are hard errors.
  add_compile_options(-Wthread-safety)
endif()
if(STQ_WERROR)
  add_compile_options(-Werror)
endif()

if(STQ_ENABLE_INVARIANT_CHECKS)
  add_compile_definitions(STQ_ENABLE_INVARIANT_CHECKS)
endif()

if(STQ_ALLOC_COUNTING)
  if(STQ_SANITIZE)
    # The sanitizer runtimes interpose malloc themselves; stacking our
    # operator-new replacement on top is legal but pointless there, and
    # TSan in particular dislikes a second layer. Counting is a Release
    # metric; sanitizer legs measure correctness, not allocations.
    message(STATUS "stq: STQ_ALLOC_COUNTING disabled under sanitizers")
  else()
    add_compile_definitions(STQ_ALLOC_COUNTING)
  endif()
endif()

if(STQ_SANITIZE)
  # Accept both "address,undefined" and "address;undefined".
  string(REPLACE "," ";" _stq_sanitizers "${STQ_SANITIZE}")
  if("undefined" IN_LIST _stq_sanitizers)
    # GCC's "undefined" group leaves out float-cast-overflow, the check
    # for out-of-range float-to-int conversions (the cell-index casts).
    list(APPEND _stq_sanitizers float-cast-overflow)
  endif()
  string(REPLACE ";" "," _stq_san_flag "${_stq_sanitizers}")
  message(STATUS "stq: sanitizers enabled: ${_stq_san_flag}")
  add_compile_options(-fsanitize=${_stq_san_flag} -fno-omit-frame-pointer -g)
  add_link_options(-fsanitize=${_stq_san_flag})
  if("undefined" IN_LIST _stq_sanitizers)
    # Fail loudly on UB rather than printing and continuing.
    add_compile_options(-fno-sanitize-recover=undefined,float-cast-overflow)
    add_link_options(-fno-sanitize-recover=undefined,float-cast-overflow)
  endif()
endif()

if(STQ_LIBFUZZER AND NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  message(FATAL_ERROR "STQ_LIBFUZZER requires clang (libFuzzer runtime)")
endif()

if(STQ_CLANG_TIDY)
  find_program(STQ_CLANG_TIDY_EXE NAMES clang-tidy)
  if(NOT STQ_CLANG_TIDY_EXE)
    message(FATAL_ERROR "STQ_CLANG_TIDY=ON but clang-tidy was not found")
  endif()
  # Config comes from .clang-tidy at the repo root; warnings become hard
  # errors so the gate cannot rot.
  set(CMAKE_CXX_CLANG_TIDY
      ${STQ_CLANG_TIDY_EXE} --warnings-as-errors=*)
endif()

# clang-tidy (and developers) rely on a compilation database.
set(CMAKE_EXPORT_COMPILE_COMMANDS ON)
