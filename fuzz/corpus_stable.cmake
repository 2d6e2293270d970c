# Byte stability of every encoding: regenerates the seed corpus with
# corpus_tool (the real encoders) into OUT and requires it to match the
# committed fuzz/corpus/ file for file, byte for byte.
#
#   cmake -DCORPUS_TOOL=<corpus_tool> -DFUZZ=<repo>/fuzz -DOUT=<scratch dir>
#         -P corpus_stable.cmake

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(COMMAND ${CORPUS_TOOL} ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corpus_tool failed")
endif()

file(GLOB_RECURSE committed RELATIVE ${FUZZ}/corpus ${FUZZ}/corpus/*)
file(GLOB_RECURSE generated RELATIVE ${OUT}/corpus ${OUT}/corpus/*)
list(SORT committed)
list(SORT generated)
if(NOT committed STREQUAL generated)
  message(FATAL_ERROR "seed sets differ:\n  committed: ${committed}\n"
                      "  generated: ${generated}")
endif()
set(moved "")
foreach(seed ${committed})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${FUZZ}/corpus/${seed} ${OUT}/corpus/${seed}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND moved ${seed})
  endif()
endforeach()
if(moved)
  message(FATAL_ERROR "bytes moved in: ${moved}")
endif()
list(LENGTH committed count)
message("${count} seeds byte-identical")
