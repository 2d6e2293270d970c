// Fuzz target: the text decoders — FaultPlan::Parse (src/dist/fault.cc, the
// --fault-plan flag) and the tensor and factor-matrix readers
// (src/tensor/io.cc, the CLI's --input files). Byte 0 picks the decoder,
// the rest is its text. Hostile text must fail with a Status: never an
// abort, an allocation sized by a header alone, or a value wrapped to fit.
//
// When Parse accepts a plan, the harness parses the plan's ToString and
// aborts unless it gives the same plan back: the text form is what a
// checkpoint fingerprints, so two plans must never share one.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/status.h"
#include "dist/fault.h"
#include "tensor/io.h"

namespace {

bool SameSpec(const dbtf::FaultSpec& a, const dbtf::FaultSpec& b) {
  return a.machine == b.machine && a.message == b.message &&
         a.kind == b.kind && a.delivery == b.delivery && a.count == b.count &&
         a.stall_seconds == b.stall_seconds;
}

void CheckFaultPlan(const std::string& text) {
  const auto plan = dbtf::FaultPlan::Parse(text);
  if (!plan.ok()) return;
  const auto again = dbtf::FaultPlan::Parse(plan->ToString());
  if (!again.ok() || again->faults.size() != plan->faults.size()) {
    std::abort();
  }
  for (std::size_t i = 0; i < plan->faults.size(); ++i) {
    if (!SameSpec(plan->faults[i], again->faults[i])) std::abort();
  }
}

void CheckTensor(const std::string& text) {
  std::istringstream in(text);
  const auto tensor = dbtf::ParseTensorText(in, "fuzz");
  if (!tensor.ok()) return;
  for (const dbtf::Coord& c : tensor->entries()) {
    if (c.i >= tensor->dim_i() || c.j >= tensor->dim_j() ||
        c.k >= tensor->dim_k()) {
      std::abort();
    }
  }
}

void CheckMatrix(const std::string& text) {
  std::istringstream in(text);
  const auto matrix = dbtf::ParseMatrixText(in, "fuzz");
  // Every accepted row came from a line of the input.
  if (matrix.ok() && matrix->rows() > static_cast<std::int64_t>(text.size())) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::string text(reinterpret_cast<const char*>(data) + 1, size - 1);
  switch (data[0] % 3) {
    case 0:
      CheckFaultPlan(text);
      break;
    case 1:
      CheckTensor(text);
      break;
    case 2:
      CheckMatrix(text);
      break;
  }
  return 0;
}
