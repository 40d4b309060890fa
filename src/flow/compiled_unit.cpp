#include "flow/compiled_unit.hpp"

#include <array>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"

namespace zolcsim::flow {

std::string unit_label(std::string_view kernel,
                       codegen::MachineKind machine) {
  return std::string(kernel) + " (" +
         std::string(codegen::machine_name(machine)) + ")";
}

std::string CompileSpec::key() const {
  // Every field that can change the compile output participates; the env's
  // memory map and sizing feed the KIR builder and data layout.
  std::string k = kernel;
  k += '|';
  k += codegen::machine_name(machine);
  k += '|';
  k += geometry.label();
  k += '|';
  k += hex32(env.code_base);
  k += ',';
  k += hex32(env.in_base);
  k += ',';
  k += hex32(env.in2_base);
  k += ',';
  k += hex32(env.out_base);
  k += ',';
  k += hex32(env.aux_base);
  k += ',';
  k += std::to_string(env.scale);
  k += ',';
  k += hex32(env.seed);
  return k;
}

namespace {

/// Index of the first word of `program` that isa::encode rejects, if any.
std::optional<std::size_t> first_unencodable(const codegen::Program& program) {
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    try {
      (void)isa::encode(program.code[i]);
    } catch (const ContractViolation&) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace

Result<CompiledUnit> CompiledUnit::compile(const CompileSpec& spec) {
  const kernels::Kernel* kernel = kernels::find_kernel(spec.kernel);
  if (kernel == nullptr) {
    return Error{ErrorCode::kUnknownKernel,
                 "unknown kernel '" + spec.kernel + "'"};
  }
  return compile(*kernel, spec);
}

Result<CompiledUnit> CompiledUnit::compile(const kernels::Kernel& kernel,
                                           const CompileSpec& spec) {
  const auto frame = [&] { return unit_label(kernel.name(), spec.machine); };
  if (!spec.geometry.valid()) {
    return Error{ErrorCode::kBadConfig,
                 "invalid ZOLC geometry " + spec.geometry.label()}
        .with_context(frame());
  }

  auto lowered = codegen::lower(kernel.build(spec.env), spec.machine,
                                spec.env.code_base, spec.geometry);
  if (!lowered.ok()) {
    return std::move(lowered).error().with_context(frame() + ": lowering");
  }
  codegen::Program program = std::move(lowered).value();

  // A KernelEnv can scale a kernel past what its immediates reach (fft at
  // scale 16 needs offsets wider than 16 bits). Encode every word now, so
  // that surfaces as a configuration error of this compile rather than as a
  // failed precondition when a run first loads the program.
  if (const auto bad = first_unencodable(program)) {
    const auto pc = program.base + static_cast<std::uint32_t>(*bad) * 4;
    return Error{ErrorCode::kBadConfig,
                 "at scale " + std::to_string(spec.env.scale) + ", '" +
                     isa::disassemble(program.code[*bad], pc) + "' at " +
                     hex32(pc) + " does not fit the instruction encoding"}
        .with_context(frame());
  }

  CompileSpec stored = spec;
  stored.kernel = std::string(kernel.name());
  return CompiledUnit(kernel, std::move(stored), std::move(program));
}

cfg::ScanReport CompiledUnit::scan() const {
  return cfg::scan_for_micro_loops(program_.code, program_.base,
                                   cfg::ScanOptions::for_geometry(geometry()));
}

namespace {

/// One recovered ZOLC table write: which table, which slot, what payload.
struct TableWrite {
  std::string_view op;
  std::uint8_t index = 0;
  std::uint32_t payload = 0;
};

/// Recovers the table image from the init prologue without re-simulating:
/// the lowering materializes every payload as a fixed lui/ori pair into the
/// scratch register, so tracking just those two opcodes reconstructs the
/// value each zolw.* writes.
std::vector<TableWrite> collect_table_writes(const codegen::Program& program) {
  std::vector<TableWrite> writes;
  std::array<std::optional<std::uint32_t>, 32> known{};
  for (const isa::Instruction& instr : program.code) {
    const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
    if (instr.op == isa::Opcode::kLui) {
      known[instr.rt] = static_cast<std::uint32_t>(instr.imm) << 16;
    } else if (instr.op == isa::Opcode::kOri && instr.rs == instr.rt &&
               known[instr.rs]) {
      known[instr.rt] =
          *known[instr.rs] | (static_cast<std::uint32_t>(instr.imm) & 0xFFFFu);
    } else if (info.format == isa::Format::kZolcWrite &&
               starts_with(info.mnemonic, "zolw")) {
      if (known[instr.rs]) {
        writes.push_back(TableWrite{info.mnemonic, instr.zidx,
                                    *known[instr.rs]});
      }
    } else if (const auto dest = isa::dest_reg(instr)) {
      known[*dest] = std::nullopt;  // any other producer spoils the tracking
    }
  }
  return writes;
}

}  // namespace

std::shared_ptr<const mem::Memory> CompiledUnit::prepared_image() const {
  const std::lock_guard<std::mutex> lock(image_slot_->mutex);
  if (!image_slot_->image) {
    auto image = std::make_shared<mem::Memory>();
    program_.load_into(*image);
    kernel_->setup(spec_.env, *image);
    image_slot_->pages.store(image->resident_pages());
    image_slot_->image = std::move(image);
  }
  return image_slot_->image;
}

std::size_t CompiledUnit::resident_bytes() const noexcept {
  return decoded_->ops.size() * sizeof(cpu::DecodedOp) +
         program_.code.size() * sizeof(isa::Instruction) +
         image_slot_->pages.load() * mem::Memory::kPageSize;
}

std::string CompiledUnit::disassembly() const {
  std::string out;
  std::uint32_t pc = program_.base;
  for (const isa::Instruction& instr : program_.code) {
    out += hex32(pc);
    out += "  ";
    out += isa::disassemble(instr, pc);
    out += '\n';
    pc += 4;
  }
  return out;
}

std::string CompiledUnit::to_json() const {
  std::string out = "{\n";
  out += "  \"kernel\": \"" + json::escape(spec_.kernel) + "\",\n";
  out += "  \"machine\": \"";
  out += codegen::machine_name(spec_.machine);
  out += "\",\n";
  out += "  \"geometry\": \"" + spec_.geometry.label() + "\",\n";
  out += "  \"program\": {\n";
  out += "    \"base\": \"" + hex32(program_.base) + "\",\n";
  out += "    \"init_instructions\": " +
         std::to_string(program_.init_instructions) + ",\n";
  out += "    \"hw_loops\": " + std::to_string(program_.hw_loop_count) +
         ",\n";
  out += "    \"sw_loops\": " + std::to_string(program_.sw_loop_count) +
         ",\n";
  out += "    \"notes\": [";
  for (std::size_t i = 0; i < program_.notes.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += json::escape(program_.notes[i]);
    out += '"';
  }
  out += "],\n";
  out += "    \"words\": [";
  for (std::size_t i = 0; i < program_.code.size(); ++i) {
    if (i != 0) out += ", ";
    if (i % 8 == 0) out += "\n      ";
    out += '"';
    out += hex32(isa::encode(program_.code[i]));
    out += '"';
  }
  out += "\n    ]\n  },\n";

  out += "  \"tables\": [";
  const std::vector<TableWrite> writes = collect_table_writes(program_);
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n    {\"op\": \"";
    out += writes[i].op;
    out += "\", \"index\": " + std::to_string(writes[i].index) +
           ", \"payload\": \"" + hex32(writes[i].payload) + "\"}";
  }
  out += writes.empty() ? "],\n" : "\n  ],\n";

  const cfg::ScanReport report = scan();
  out += "  \"scan\": {\n    \"candidates\": [";
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    const cfg::MicroPlan& plan = report.candidates[i];
    if (i != 0) out += ",";
    out += "\n      {\"depth\": " + std::to_string(plan.depth) +
           ", \"start_pc\": \"" + hex32(plan.start_pc) +
           "\", \"end_pc\": \"" + hex32(plan.end_pc) +
           "\", \"index_reg\": " + std::to_string(plan.index_reg) +
           ", \"initial\": " + std::to_string(plan.initial) +
           ", \"final\": " + std::to_string(plan.final) +
           ", \"step\": " + std::to_string(plan.step) +
           ", \"cond\": " +
           std::to_string(static_cast<unsigned>(plan.cond)) +
           ", \"update_index\": " + std::to_string(plan.update_index) +
           ", \"branch_index\": " + std::to_string(plan.branch_index) + "}";
  }
  out += report.candidates.empty() ? "],\n" : "\n    ],\n";
  out += "    \"rejected\": [";
  for (std::size_t i = 0; i < report.rejected.size(); ++i) {
    const Error& reason = report.rejected[i];
    if (i != 0) out += ",";
    out += "\n      {\"code\": \"";
    out += error_code_name(reason.code);
    out += "\", \"message\": \"" + json::escape(reason.message) + "\"}";
  }
  out += report.rejected.empty() ? "]\n  }\n" : "\n    ]\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace zolcsim::flow
