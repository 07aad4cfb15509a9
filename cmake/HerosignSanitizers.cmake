# Opt-in sanitizer instrumentation for the whole build.
#
# HEROSIGN_SANITIZE is a comma-separated sanitizer list passed
# straight to -fsanitize, e.g.
#
#   cmake -B build-sanitize -DHEROSIGN_SANITIZE=address,undefined ..
#
# (ci.sh wires the SANITIZE environment variable to this cache
# variable.) The flags are attached to the herosign_options interface
# target, which every library, test, bench and example target links,
# so the entire build is instrumented consistently. Errors are fatal
# (-fno-sanitize-recover) so CI cannot pass with findings.
#
# Sanitized builds also define _GLIBCXX_ASSERTIONS: libstdc++ then
# bounds-checks vector and span indexing (operator[], subspan, front,
# back) against the size, where ASan only sees accesses that leave the
# heap block, not those past size() but inside capacity.
set(HEROSIGN_SANITIZE "" CACHE STRING
    "Comma-separated sanitizers to enable (e.g. address,undefined)")

if(HEROSIGN_SANITIZE)
    if(MSVC)
        message(FATAL_ERROR
            "HEROSIGN_SANITIZE requires gcc or clang")
    endif()
    set(_herosign_san_flags
        -fsanitize=${HEROSIGN_SANITIZE}
        -fno-omit-frame-pointer
        -fno-sanitize-recover=all)
    target_compile_options(herosign_options
        INTERFACE ${_herosign_san_flags})
    target_compile_definitions(herosign_options
        INTERFACE _GLIBCXX_ASSERTIONS)
    target_link_options(herosign_options
        INTERFACE ${_herosign_san_flags})
    message(STATUS "herosign: sanitizers enabled: ${HEROSIGN_SANITIZE}")
endif()
