# lint_golden: runs `msql_lint --explain --conflicts` on one checked-in
# MSQL program and compares its stdout and exit code byte for byte with
# the committed golden, so a change to the rendered DOL, diagnostics,
# access summaries or conflict findings shows up as a diff.
#
# Run via ctest (label `lint`). Invoked as
#   cmake -DLINT=<msql_lint> -DDIR=<examples dir> -DPROG=<name>
#         -DOUT=<scratch file> -P lint_golden.cmake
# Regenerate a golden after an intended change with
#   cd examples && ../build/examples/msql_lint --explain --conflicts \
#     <name>.msql > golden/<name>.lint.txt
# (the exit code is pinned in examples/CMakeLists.txt).

if(NOT DEFINED LINT OR NOT DEFINED DIR OR NOT DEFINED PROG OR
   NOT DEFINED EXPECT_EXIT OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "lint_golden: pass -DLINT, -DDIR, -DPROG, -DEXPECT_EXIT, -DOUT")
endif()

# Relative path: msql_lint prefixes every finding with the name it was
# given, which must not depend on where the tree is checked out.
execute_process(
  COMMAND "${LINT}" --explain --conflicts "${PROG}.msql"
  WORKING_DIRECTORY "${DIR}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE exit_code)
file(READ "${DIR}/golden/${PROG}.lint.txt" expected)

if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR
          "msql_lint ${PROG}.msql exited ${exit_code}, expected ${EXPECT_EXIT}")
endif()
if(NOT actual STREQUAL expected)
  file(WRITE "${OUT}" "${actual}")
  message(FATAL_ERROR
          "msql_lint ${PROG}.msql output differs from golden/${PROG}.lint.txt; "
          "actual output written to ${OUT} (diff the two)")
endif()
message(STATUS "msql_lint ${PROG}.msql matches its golden")
