# herosign_walk_includes(<seen_var> <violations_var>
#                        SRC_DIR <dir> FILES <file>...
#                        ALLOW <regex> [DENY <regex>])
#
# Follows the #include lines of FILES, resolving each the way the
# compiler would: next to the includer, then under SRC_DIR. A header
# under SRC_DIR is named by its path relative to SRC_DIR. It is a
# violation when it matches DENY or does not match ALLOW, and is
# walked in turn otherwise, so a header that later grows a forbidden
# dependency is caught as well. Headers outside SRC_DIR (the caller's
# own) are not walked; system headers resolve to nothing and are
# skipped. <seen_var> receives every file read, <violations_var> one
# "<includer> includes <header>" entry per violation.
#
# Used in script mode (cmake -P) by the dependency checks under tests/.

function(herosign_walk_includes seen_var violations_var)
    cmake_parse_arguments(PARSE_ARGV 2 arg "" "SRC_DIR;ALLOW;DENY" "FILES")
    if(NOT arg_SRC_DIR OR NOT arg_FILES OR NOT arg_ALLOW)
        message(FATAL_ERROR "herosign_walk_includes: set SRC_DIR, FILES and ALLOW")
    endif()
    get_filename_component(src_root "${arg_SRC_DIR}" REALPATH)

    set(pending ${arg_FILES})
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
                continue() # outside SRC_DIR: the caller's own files
            endif()
            set(denied FALSE)
            if(arg_DENY)
                if(rel MATCHES "${arg_DENY}")
                    set(denied TRUE)
                endif()
            endif()
            if(denied OR NOT rel MATCHES "${arg_ALLOW}")
                list(APPEND violations "${src_file} includes ${rel}")
            else()
                list(APPEND pending "${target}")
            endif()
        endforeach()
    endwhile()

    set(${seen_var} "${seen}" PARENT_SCOPE)
    set(${violations_var} "${violations}" PARENT_SCOPE)
endfunction()
