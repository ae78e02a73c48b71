#include "analysis/units.h"

#include "analysis/api.h"
#include "analysis/driver.h"

namespace semsim {

void throw_if_cancelled(const CancelToken* cancel, const char* where) {
  if (cancel != nullptr && cancel->stop_requested()) {
    throw Error(ErrorCode::kCancelled,
                std::string("run cancelled before ") + where);
  }
}

AttemptRecord run_with_retry(const RetryPolicy& policy,
                             const std::function<void(std::uint32_t)>& attempt,
                             const std::function<void()>& on_error,
                             const std::function<std::string()>& label) {
  ErrorCode last = ErrorCode::kNone;
  for (std::uint32_t tried = 0;;) {
    try {
      attempt(tried);
      return {true, last, tried + 1};
    } catch (Error& e) {
      if (e.code() == ErrorCode::kCancelled) throw;
      ++tried;
      last = e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
      const bool again = policy.should_retry(last, tried);
      if (!again && policy.strict) {
        e.add_context(label());
        throw;
      }
      on_error();
      if (!again) return {false, last, tried};
    }
  }
}

Engine& UnitAttempt::engine(
    const Circuit& circuit, const EngineOptions& base,
    std::shared_ptr<const ElectrostaticModel> model,
    std::shared_ptr<const QuasiparticleRate> qp_table) const {
  return engine_slot->emplace(
      circuit, unit_engine_options(base, base_seed, unit, attempt),
      std::move(model), std::move(qp_table));
}

Engine& UnitAttempt::engine(
    Circuit&& circuit, const EngineOptions& base,
    std::shared_ptr<const ElectrostaticModel> model,
    std::shared_ptr<const QuasiparticleRate> qp_table) const {
  return engine(circuit_slot->emplace(std::move(circuit)), base,
                std::move(model), std::move(qp_table));
}

std::unique_ptr<RunCheckpoint> UnitContext::open_checkpoint(
    std::uint64_t units) const {
  if (!checkpoint.enabled()) return nullptr;
  return std::make_unique<RunCheckpoint>(checkpoint.path,
                                         checkpoint.fingerprint, units,
                                         checkpoint.require_existing,
                                         checkpoint.salvage);
}

void UnitContext::tag_checkpoint(const char* tag, std::uint64_t shape) {
  BinaryWriter w;
  w.u64(checkpoint.fingerprint);
  w.str(tag);
  w.u64(shape);
  checkpoint.fingerprint = fnv1a64(w.bytes().data(), w.bytes().size());
}

void UnitContext::started(std::uint64_t units, std::uint64_t points) const {
  if (progress != nullptr) progress->on_run_started(units, points);
}

void UnitContext::unit_done(std::size_t unit) const {
  if (progress != nullptr) progress->on_unit_done(unit);
}

UnitContext unit_context(const SimulationInput& input,
                         const DriverOptions& options,
                         std::uint64_t base_seed) {
  UnitContext ctx{options.executor != nullptr
                      ? *options.executor
                      : ParallelExecutor(options.threads),
                  {},
                  options.cancel,
                  options.progress,
                  options.retry,
                  base_seed};
  CheckpointConfig& ckpt = ctx.checkpoint;
  ckpt.path = options.resume_path.empty() ? options.checkpoint_path
                                          : options.resume_path;
  ckpt.require_existing = !options.resume_path.empty();
  ckpt.salvage = options.salvage_checkpoint;
  if (ckpt.enabled()) ckpt.fingerprint = run_fingerprint(input, options);
  return ctx;
}

void run_sequence(const Sequence& seq, const UnitContext& ctx) {
  const std::unique_ptr<RunCheckpoint> cp = ctx.open_checkpoint(seq.count);
  ctx.started(seq.count, 0);
  std::size_t next = 0;  // the first milestone not on file
  if (cp) {
    std::size_t done = seq.count;
    while (done > 0 && !cp->has(done - 1)) --done;
    if (done > 0) {
      const std::vector<std::uint8_t> bytes = cp->payload(done - 1);
      BinaryReader r(bytes);
      seq.decode(r);
      r.require_done();
      for (; next < done; ++next) ctx.unit_done(next);
    }
  }
  for (std::size_t k = next; k < seq.count; ++k) {
    throw_if_cancelled(ctx.cancel, seq.name);
    if (!seq.advance(k)) return;
    BinaryWriter w;
    seq.encode(w);
    if (cp) cp->record(k, w.take(), /*only=*/true);
    ctx.unit_done(k);
  }
}

namespace detail {

void encode_unit_work(BinaryWriter& w, const UnitWork& work) {
  encode_solver_stats(w, work.stats);
  w.u8(work.outcome.ok ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(work.outcome.code));
  w.u32(work.outcome.attempts);
  encode_integrity_report(w, work.integrity);
}

void decode_unit_work(BinaryReader& r, UnitWork& work) {
  work.stats = decode_solver_stats(r);
  work.outcome.ok = r.u8() != 0;
  work.outcome.code = static_cast<ErrorCode>(r.u32());
  work.outcome.attempts = r.u32();
  work.integrity = decode_integrity_report(r);
}

void run_attempts(const UnitContext& ctx, std::size_t unit, const char* name,
                  bool isolated, UnitWork& work,
                  const std::function<void(const UnitAttempt&)>& body) {
  std::optional<Circuit> circuit;  // declared first: outlives the engine
  std::optional<Engine> engine;
  const auto harvest = [&] {
    if (engine) work.add(*engine);
    engine.reset();
    circuit.reset();
  };
  const auto attempt = [&](std::uint32_t a) {
    body(UnitAttempt{unit, a, ctx.base_seed, &engine, &circuit});
    harvest();
  };
  if (!isolated) {
    attempt(0);
    return;
  }
  work.outcome = run_with_retry(ctx.retry, attempt, harvest, [&] {
    return std::string(name) + " " + std::to_string(unit);
  });
}

}  // namespace detail
}  // namespace semsim
