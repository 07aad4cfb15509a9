# Fails when the real signing path reaches into the GPU simulator or
# its PTX emulation. The real path is src/sphincs, src/batch,
# src/service, src/telemetry and the lane engine of src/hash
# (sha256xN.* and the SIMD backends). In those files:
#  - no include, direct or through other library headers, may reach
#    core/, gpusim/ or hash/ptx_emu.hh;
#  - nothing may call sha256CompressPtx;
#  - Sha256Variant may appear only where src/service keeps
#    ServiceConfig::variant (admission.hh) and ContextCache's variant
#    parameter with the rejection of all but Native (context_cache.hh).
# laneDispatch() alone then decides which SHA-256 code signs.
#
# Group signing lives in sphincs::SignTask. Anywhere under src/, only
# batch/lane_scheduler.hh, the alias the serving benchmark still
# calls, may name LaneScheduler or lane_scheduler.hh.
#
#   cmake -DSRC_DIR=src -P tests/check_real_path_boundary.cmake
cmake_minimum_required(VERSION 3.20)
include(${CMAKE_CURRENT_LIST_DIR}/../cmake/HerosignIncludeWalk.cmake)

if(NOT SRC_DIR)
    message(FATAL_ERROR "check_real_path_boundary: set SRC_DIR")
endif()
get_filename_component(src_root "${SRC_DIR}" REALPATH)

file(GLOB real_path
    "${src_root}/sphincs/*.hh" "${src_root}/sphincs/*.cc"
    "${src_root}/batch/*.hh" "${src_root}/batch/*.cc"
    "${src_root}/service/*.hh" "${src_root}/service/*.cc"
    "${src_root}/telemetry/*.hh" "${src_root}/telemetry/*.cc"
    "${src_root}/hash/sha256xN.hh" "${src_root}/hash/sha256xN.cc"
    "${src_root}/hash/sha256x*_avx*.cc")
if(NOT real_path)
    message(FATAL_ERROR "check_real_path_boundary: no sources under ${src_root}")
endif()

herosign_walk_includes(seen violations
    SRC_DIR "${src_root}"
    FILES ${real_path}
    ALLOW "."
    DENY "^(core/|gpusim/|hash/ptx_emu\\.hh$)")

# Appends "<rel>:<line number>: <line>" to violations for each line
# of src_file that contains @p word (';' dropped: it would split the
# list entry).
macro(forbid_word word)
    file(READ "${src_file}" rest)
    set(line_no 1)
    string(FIND "${rest}" "${word}" at)
    while(NOT at EQUAL -1)
        string(SUBSTRING "${rest}" 0 ${at} head)
        string(REGEX MATCHALL "\n" breaks "${head}")
        list(LENGTH breaks skipped)
        math(EXPR line_no "${line_no} + ${skipped}")
        string(FIND "${head}" "\n" bol REVERSE)
        math(EXPR bol "${bol} + 1")
        string(SUBSTRING "${rest}" ${bol} -1 rest)
        string(FIND "${rest}" "\n" eol)
        string(SUBSTRING "${rest}" 0 ${eol} hit)
        string(REPLACE ";" "" hit "${hit}")
        string(STRIP "${hit}" hit)
        list(APPEND violations "${rel}:${line_no}: ${hit}")
        if(eol EQUAL -1)
            break()
        endif()
        math(EXPR eol "${eol} + 1")
        string(SUBSTRING "${rest}" ${eol} -1 rest)
        math(EXPR line_no "${line_no} + 1")
        string(FIND "${rest}" "${word}" at)
    endwhile()
endmacro()

set(variant_keepers service/admission.hh service/context_cache.hh)
foreach(src_file IN LISTS real_path)
    file(RELATIVE_PATH rel "${src_root}" "${src_file}")
    forbid_word(sha256CompressPtx)
    if(NOT rel IN_LIST variant_keepers)
        forbid_word(Sha256Variant)
    endif()
endforeach()

if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "real path depends on the simulator:\n  ${report}")
endif()

file(GLOB_RECURSE all_src "${src_root}/*.hh" "${src_root}/*.cc")
foreach(src_file IN LISTS all_src)
    file(RELATIVE_PATH rel "${src_root}" "${src_file}")
    if(NOT rel STREQUAL "batch/lane_scheduler.hh")
        forbid_word(LaneScheduler)
        forbid_word(lane_scheduler.hh)
    endif()
endforeach()

if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "group signing outside sphincs::SignTask "
        "(only batch/lane_scheduler.hh may keep the alias):\n  ${report}")
endif()
list(LENGTH real_path count)
list(LENGTH seen walked)
message(STATUS "real path boundary holds: ${count} files, ${walked} walked")
