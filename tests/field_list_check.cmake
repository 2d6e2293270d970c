# Proves the field-list coverage check (common/fields.h) is live: compiles
# the codec translation unit SOURCE against a copy of HEADER in which STRUCT
# gains a member its field lists do not name. The ctest case passes only on
# the field-list static_assert in the output; the same unit must first
# compile cleanly against the real header, so an unrelated compile error
# cannot pass it.
#
#   cmake -DCXX=<compiler> -DSRC=<repo>/src -DOUT=<scratch dir>
#         -DHEADER=dist/messages.h -DSTRUCT=QueryRequest
#         -DSOURCE=dist/transport/wire.cc -P field_list_check.cmake

set(compile ${CXX} -std=c++20 -fsyntax-only -I${OUT} -I${SRC} ${SRC}/${SOURCE})

file(REMOVE_RECURSE ${OUT})
execute_process(COMMAND ${compile} RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SOURCE} does not compile unmodified:\n${err}")
endif()

file(READ ${SRC}/${HEADER} text)
string(FIND "${text}" "struct ${STRUCT} {" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no 'struct ${STRUCT} {' in ${HEADER}")
endif()
string(REPLACE "struct ${STRUCT} {"
               "struct ${STRUCT} {\n  std::int64_t unlisted_member = 0;"
               text "${text}")
file(WRITE ${OUT}/${HEADER} "${text}")

execute_process(COMMAND ${compile} RESULT_VARIABLE rc ERROR_VARIABLE err)
message("${err}")
if(rc EQUAL 0)
  message(FATAL_ERROR "${SOURCE} compiled with an unlisted ${STRUCT} member")
endif()
