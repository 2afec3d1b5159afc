#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace hpac::simd {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kHostIsX86 = true;
#else
constexpr bool kHostIsX86 = false;
#endif

Level compiled_level() {
  if (!kHostIsX86) return Level::kOff;
#if defined(HPAC_SIMD_COMPILED_AVX2)
  return Level::kAvx2;
#else
  return Level::kSse2;
#endif
}

Level runtime_level() {
  const Level compiled = compiled_level();
  if (compiled == Level::kOff) return Level::kOff;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(_M_X64))
  if (compiled >= Level::kAvx2 && __builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  // SSE2 is part of the x86-64 baseline: every CPU that runs this binary
  // has it, so the floor among compiled levels is always usable.
  return Level::kSse2;
}

Level clamp_to_runtime(Level level) {
  const Level ceiling = runtime_level();
  return level < ceiling ? level : ceiling;
}

struct Resolution {
  Level level = Level::kOff;
  bool env_override = false;
  std::optional<std::string> unrecognised;
};

/// One-time HPAC_SIMD resolution. Unknown spellings are ignored (the
/// default wins) rather than fatal: the override is a perf knob, and the
/// `describe()` line hpac_explore and hpac_campaign print names a typo,
/// while a crash would take the whole sweep down.
Resolution resolve_from_env() {
  Resolution r;
  r.level = runtime_level();
  const char* env = std::getenv("HPAC_SIMD");
  if (env == nullptr) return r;
  const std::string_view text(env);
  if (text == "off" || text == "0" || text == "scalar") {
    r.level = Level::kOff;
    r.env_override = true;
  } else if (text == "sse2") {
    r.level = clamp_to_runtime(Level::kSse2);
    r.env_override = true;
  } else if (text == "avx2") {
    r.level = clamp_to_runtime(Level::kAvx2);
    r.env_override = true;
  } else {
    r.unrecognised = std::string(text);
  }
  return r;
}

const Resolution& startup_resolution() {
  static const Resolution resolution = resolve_from_env();
  return resolution;
}

std::atomic<Level>& active_slot() {
  static std::atomic<Level> slot{startup_resolution().level};
  return slot;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    case Level::kOff:
      break;
  }
  return "off";
}

Level max_compiled_level() { return compiled_level(); }

Level max_runtime_level() { return runtime_level(); }

Level active_level() { return active_slot().load(std::memory_order_relaxed); }

Level set_level(Level level) {
  const Level installed = clamp_to_runtime(level);
  active_slot().store(installed, std::memory_order_relaxed);
  return installed;
}

DispatchInfo dispatch_info() {
  DispatchInfo info;
  info.active = active_level();
  info.max_runtime = runtime_level();
  info.max_compiled = compiled_level();
  info.env_override = startup_resolution().env_override;
  info.env_unrecognised = startup_resolution().unrecognised;
  return info;
}

std::string describe(const DispatchInfo& info) {
  std::string line = std::string("simd: ") + level_name(info.active);
  if (info.env_unrecognised) {
    line += " (HPAC_SIMD=\"" + *info.env_unrecognised +
            "\" not recognised; using the widest level)";
  }
  return line;
}

}  // namespace hpac::simd
