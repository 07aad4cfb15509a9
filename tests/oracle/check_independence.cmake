# Fails when a source of the spec oracle (every *.hh / *.cc in
# ORACLE_DIR) reaches a library header beyond the primitives the
# oracle may trust: the one-stream SHA-256, HMAC and MGF1, the Params
# struct, the Address setters and common/. Includes of those allowed
# headers are followed too, so a header that later grows a dependency
# on the signer is caught as well.
#
#   cmake -DORACLE_DIR=tests/oracle -DSRC_DIR=src \
#         -P tests/oracle/check_independence.cmake
cmake_minimum_required(VERSION 3.20)
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/HerosignIncludeWalk.cmake)

if(NOT ORACLE_DIR OR NOT SRC_DIR)
    message(FATAL_ERROR "check_independence: set ORACLE_DIR and SRC_DIR")
endif()

file(GLOB oracle_files "${ORACLE_DIR}/*.hh" "${ORACLE_DIR}/*.cc")
if(NOT oracle_files)
    message(FATAL_ERROR "check_independence: no oracle sources in ${ORACLE_DIR}")
endif()

herosign_walk_includes(seen violations
    SRC_DIR "${SRC_DIR}"
    FILES ${oracle_files}
    ALLOW "^(hash/(sha256|hmac|mgf1)\\.hh|sphincs/(params|address)\\.hh|common/.*)$")

if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "spec oracle is not independent of the signer:\n  ${report}")
endif()
list(LENGTH seen count)
message(STATUS "spec oracle independent: ${count} files checked")
