// The paper's figures, Table 1, the §5.1 RONI numbers, the ablations and
// the extensions as data: one spec per result (registry experiment, runs,
// table, chart, footnote) and one renderer, reached as
// `sbx_experiments figure <name>` and `sbx_experiments figure list`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace sbx::figures {

/// Resolves every run config of every figure, at full scale and under
/// --quick, through eval::resolve_config (schema-checked, nothing run),
/// then prints the figure names one per line. Throws sbx::InvalidArgument
/// naming the figure whose spec does not resolve.
void list();

/// Runs figure `name`, prints its header, table, chart and footnote, and
/// writes its table to `<out_dir>/<name>.csv`. Throws sbx::InvalidArgument
/// (util::unknown_name_message) for an unknown name.
void render(const std::string& name, bool quick, std::size_t threads,
            std::optional<std::uint64_t> seed, const std::string& out_dir);

}  // namespace sbx::figures
