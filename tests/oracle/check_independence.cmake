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

if(NOT ORACLE_DIR OR NOT SRC_DIR)
    message(FATAL_ERROR "check_independence: set ORACLE_DIR and SRC_DIR")
endif()

set(allowed
    hash/sha256.hh hash/hmac.hh hash/mgf1.hh
    sphincs/params.hh sphincs/address.hh)
get_filename_component(src_root "${SRC_DIR}" REALPATH)

file(GLOB pending "${ORACLE_DIR}/*.hh" "${ORACLE_DIR}/*.cc")
if(NOT pending)
    message(FATAL_ERROR "check_independence: no oracle sources in ${ORACLE_DIR}")
endif()

set(seen "")
set(violations "")
while(pending)
    list(POP_FRONT pending src_file)
    if(src_file IN_LIST seen)
        continue()
    endif()
    list(APPEND seen "${src_file}")
    get_filename_component(dir "${src_file}" DIRECTORY)
    file(STRINGS "${src_file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]")
    foreach(line IN LISTS lines)
        string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*[\"<]([^\">]+)[\">].*"
               "\\1" inc "${line}")
        # Resolve the way the compiler would: next to the includer,
        # then through the library's include root.
        set(target "")
        foreach(base "${dir}" "${src_root}")
            if(NOT target AND EXISTS "${base}/${inc}")
                get_filename_component(target "${base}/${inc}" REALPATH)
            endif()
        endforeach()
        if(NOT target)
            continue() # a system or standard header
        endif()
        file(RELATIVE_PATH rel "${src_root}" "${target}")
        if(rel MATCHES "^\\.\\./")
            continue() # outside src/: the oracle's own files
        endif()
        if(rel IN_LIST allowed OR rel MATCHES "^common/")
            list(APPEND pending "${target}")
        else()
            list(APPEND violations "${src_file} includes ${rel}")
        endif()
    endforeach()
endwhile()

if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "spec oracle is not independent of the signer:\n  ${report}")
endif()
list(LENGTH seen count)
message(STATUS "spec oracle independent: ${count} files checked")
