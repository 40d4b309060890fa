// Motion estimation across the machine configurations -- the paper's
// motivating workload class. Shows where each ZOLC variant pays:
//   * me_fsbm: a perfect 4-deep nest every variant accelerates;
//   * me_tss : a multi-exit candidate loop only ZOLCfull keeps in hardware.
#include <cstdio>
#include <string>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/experiment.hpp"

int main() {
  using namespace zolcsim;
  using codegen::MachineKind;

  std::printf("Motion estimation on every machine configuration\n\n");

  for (const char* name : {"me_fsbm", "me_tss"}) {
    const kernels::Kernel* kernel = kernels::find_kernel(name);
    std::printf("%s -- %s\n", name,
                std::string(kernel->description()).c_str());

    TextTable table({"machine", "cycles", "vs XRdefault", "hw loops",
                     "ZOLC exit hits", "notes"});
    std::uint64_t baseline = 0;
    for (const MachineKind machine : codegen::kAllMachines) {
      // Staged flow: compile the unit, then run it (one config here; the
      // split pays off when a unit is run under many).
      flow::CompileSpec spec;
      spec.kernel = name;
      spec.machine = machine;
      const auto unit = flow::CompiledUnit::compile(spec);
      const auto result = unit.ok()
                              ? flow::run(unit.value())
                              : Result<flow::ExperimentResult>(
                                    Error(unit.error()));
      if (!result.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     result.error().to_string().c_str());
        return 1;
      }
      const auto& r = result.value();
      if (machine == MachineKind::kXrDefault) baseline = r.stats.cycles;
      std::string note;
      for (const std::string& n : r.notes) {
        if (!note.empty()) note += "; ";
        note += n;
      }
      if (note.size() > 46) note = note.substr(0, 43) + "...";
      table.add_row(
          {std::string(codegen::machine_name(machine)),
           std::to_string(r.stats.cycles),
           format_fixed(harness::percent_reduction(baseline, r.stats.cycles),
                        1) +
               "%",
           std::to_string(r.hw_loops),
           std::to_string(r.zolc_stats.exit_matches), note});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf(
      "reading me_tss: the candidate loop's perfect-match break makes it a\n"
      "multi-exit loop. ZOLClite must lower it (and the SAD loops inside it)\n"
      "to software and loses nearly all benefit; ZOLCfull registers the\n"
      "break as a candidate-exit record and keeps the entire structure in\n"
      "hardware -- the paper's argument for arbitrary loop structures.\n");
  return 0;
}
