# Checks `sbx_experiments figure`: `figure list` prints exactly the figure
# names (after resolving every spec's run configs), an unknown name exits 2,
# and the cheap figures print byte-identical stdout and CSV at --threads=1
# and --threads=4. Registered as the sbx_figures ctest.
#
# Expects: EXPERIMENTS (sbx_experiments binary), OUT_DIR (scratch directory).

set(expected_names
  fig1_dictionary fig2_focused_knowledge fig3_focused_size fig4_token_shift
  fig5_threshold roni_defense table1_parameters ablation_dictionary_size
  ablation_focused_guessing ablation_informed ablation_roni_sizes
  ablation_threshold_sweep ext_good_words ext_ham_labeled ext_retraining
  ext_tokenizer_flavors)
set(cheap_figures
  fig2_focused_knowledge fig3_focused_size fig4_token_shift roni_defense
  table1_parameters ablation_focused_guessing ext_ham_labeled)

execute_process(
  COMMAND "${EXPERIMENTS}" figure list
  RESULT_VARIABLE list_rc
  OUTPUT_VARIABLE list_out)
if(NOT list_rc EQUAL 0)
  message(FATAL_ERROR "sbx_experiments figure list failed (rc=${list_rc})")
endif()
string(REPLACE ";" "\n" expected_out "${expected_names}")
if(NOT list_out STREQUAL "${expected_out}\n")
  message(FATAL_ERROR
    "figure list printed:\n${list_out}\nexpected:\n${expected_out}")
endif()

execute_process(
  COMMAND "${EXPERIMENTS}" figure no_such_figure
  RESULT_VARIABLE unknown_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT unknown_rc EQUAL 2)
  message(FATAL_ERROR "unknown figure exited ${unknown_rc}, expected 2")
endif()

# Each thread count runs in its own directory with the same relative
# --out-dir, so the "CSV written to" lines compare equal too.
file(REMOVE_RECURSE "${OUT_DIR}")
foreach(threads 1 4)
  file(MAKE_DIRECTORY "${OUT_DIR}/t${threads}")
  foreach(figure IN LISTS cheap_figures)
    execute_process(
      COMMAND "${EXPERIMENTS}" figure ${figure} --quick --threads=${threads}
              --out-dir=csv
      WORKING_DIRECTORY "${OUT_DIR}/t${threads}"
      RESULT_VARIABLE run_rc
      OUTPUT_FILE "${OUT_DIR}/t${threads}/${figure}.txt")
    if(NOT run_rc EQUAL 0)
      message(FATAL_ERROR
        "figure ${figure} --threads=${threads} failed (rc=${run_rc})")
    endif()
  endforeach()
endforeach()

file(GLOB_RECURSE outputs RELATIVE "${OUT_DIR}/t1" "${OUT_DIR}/t1/*")
list(LENGTH outputs output_count)
if(NOT output_count EQUAL 13)
  message(FATAL_ERROR "expected 7 stdout files and 6 CSVs, got ${outputs}")
endif()
foreach(output IN LISTS outputs)
  file(READ "${OUT_DIR}/t1/${output}" at_one)
  file(READ "${OUT_DIR}/t4/${output}" at_four)
  if(NOT at_one STREQUAL at_four)
    message(FATAL_ERROR "${output} differs between --threads=1 and 4")
  endif()
endforeach()
