# Layering check: every `#include "<dir>/..."` in src/ must name its own
# directory or one of a strictly lower rank, so dependencies run one way:
#   common < isa, mem < zolc < cpu, codegen, cfg < kernels < flow < harness
#          < scenario < server
# Directories of equal rank may not include each other, and a directory
# missing from the ranking fails the check until it is ranked. Invoked by
# CTest as
#   cmake -DSRC=<repo>/src -P layering.cmake
if(NOT SRC)
  message(FATAL_ERROR "layering.cmake needs -DSRC=")
endif()

set(rank_common 0)
set(rank_isa 1)
set(rank_mem 1)
set(rank_zolc 2)
set(rank_cpu 3)
set(rank_codegen 3)
set(rank_cfg 3)
set(rank_kernels 4)
set(rank_flow 5)
set(rank_harness 6)
set(rank_scenario 7)
set(rank_server 8)

file(GLOB_RECURSE sources RELATIVE ${SRC} ${SRC}/*.hpp ${SRC}/*.cpp)
set(violations "")
foreach(source IN LISTS sources)
  string(REGEX MATCH "^[^/]+" dir "${source}")
  if(NOT DEFINED rank_${dir})
    string(APPEND violations "\n  ${source}: src/${dir} has no rank")
    continue()
  endif()
  file(STRINGS ${SRC}/${source} includes REGEX "^#include \"[^/\"]+/")
  foreach(line IN LISTS includes)
    string(REGEX REPLACE "^#include \"([^/\"]+)/.*" "\\1" used "${line}")
    if(used STREQUAL dir OR NOT DEFINED rank_${used})
      continue()  # own directory, or not a src/ directory
    endif()
    if(NOT rank_${used} LESS rank_${dir})
      string(APPEND violations "\n  ${source}: ${line}")
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "includes against the layering:${violations}")
endif()
