# Header self-sufficiency gate: every public header under src/, and every
# oracle header under oracles/, must compile standalone.
#
# clang-tidy's profile does not check include hygiene, and a header that
# compiles only because every current includer happens to include its
# missing dependency first is a refactoring landmine — reordering
# includes (or adding a new consumer) breaks a file nobody touched.  The
# gate generates one tiny TU per header that includes it twice (the
# second include also proves the guard) and nothing else, groups the TUs
# into one object library per src/ subdirectory, and registers building
# each group as a ctest.  The oracle headers form one more group,
# HeaderGate.oracles, built against sops_oracles (they include as
# "oracles/<name>.hpp" from the repository root).  The libraries are
# EXCLUDE_FROM_ALL: a plain build never pays for them; `ctest -R
# HeaderGate` (or CI) does.
#
# Exclusions: none today.  If a header ever legitimately cannot stand
# alone (e.g. an x-macro fragment meant for textual inclusion), list it
# in SOPS_HEADER_GATE_EXCLUDE below with a comment saying why — the same
# every-opt-out-documented discipline as .clang-tidy.

# Relative-to-src/ paths of headers exempt from the gate (each entry
# needs a justifying comment; an empty list is the healthy state).
set(SOPS_HEADER_GATE_EXCLUDE)

function(sops_add_header_gate)
  file(GLOB_RECURSE _sops_gate_headers
       RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}/src
       CONFIGURE_DEPENDS ${CMAKE_CURRENT_SOURCE_DIR}/src/*.hpp)
  # Oracle headers are named relative to the repository root, so their
  # group is "oracles".
  file(GLOB _sops_oracle_headers
       RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}
       CONFIGURE_DEPENDS ${CMAKE_CURRENT_SOURCE_DIR}/oracles/*.hpp)
  list(APPEND _sops_gate_headers ${_sops_oracle_headers})
  set(_sops_gate_groups)
  foreach(_header IN LISTS _sops_gate_headers)
    if(_header IN_LIST SOPS_HEADER_GATE_EXCLUDE)
      continue()
    endif()
    string(REGEX MATCH "^[^/]+" _group "${_header}")
    string(MAKE_C_IDENTIFIER "${_header}" _ident)
    set(_tu ${CMAKE_BINARY_DIR}/header_gate/${_ident}.cpp)
    file(CONFIGURE OUTPUT ${_tu} CONTENT
"// Generated by cmake/HeaderSelfSufficiency.cmake — do not edit.
// Compiles iff \"${_header}\" is self-sufficient; the second include
// additionally proves its include guard.
#include \"${_header}\"
#include \"${_header}\"
" @ONLY)
    list(APPEND _sops_gate_sources_${_group} ${_tu})
    list(APPEND _sops_gate_groups ${_group})
  endforeach()
  list(REMOVE_DUPLICATES _sops_gate_groups)
  foreach(_group IN LISTS _sops_gate_groups)
    set(_target sops_header_gate_${_group})
    add_library(${_target} OBJECT EXCLUDE_FROM_ALL
                ${_sops_gate_sources_${_group}})
    if(_group STREQUAL "oracles")
      target_link_libraries(${_target} PRIVATE sops_oracles)
    else()
      target_include_directories(${_target}
        PRIVATE ${CMAKE_CURRENT_SOURCE_DIR}/src)
      target_link_libraries(${_target} PRIVATE Threads::Threads)
    endif()
    sops_apply_warnings(${_target})
    # RUN_SERIAL: each test drives the shared build directory; concurrent
    # ninja invocations would contend on the same build state.
    add_test(NAME HeaderGate.${_group}
      COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
              --target ${_target})
    set_tests_properties(HeaderGate.${_group} PROPERTIES
      RUN_SERIAL TRUE LABELS "static-analysis")
  endforeach()
endfunction()
