#include "check/forensics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "check/schedule.hpp"
#include "core/scheme/policy.hpp"
#include "util/json.hpp"
#include "util/json_reader.hpp"

namespace dstage::check {

namespace {

Json event_to_json(const obs::DecodedEvent& e) {
  Json out = Json::object();
  out.set("seq", e.seq);
  out.set("at_ns", e.at_ns);
  out.set("kind", e.kind);
  out.set("track", e.track);
  out.set("detail", e.detail);
  out.set("a", e.a);
  out.set("b", e.b);
  return out;
}

obs::DecodedEvent event_from_json(const JsonValue& v) {
  obs::DecodedEvent e;
  if (const JsonValue* m = v.member("seq")) e.seq = m->as_u64();
  if (const JsonValue* m = v.member("at_ns")) e.at_ns = m->as_i64();
  if (const JsonValue* m = v.member("kind")) e.kind = m->string;
  if (const JsonValue* m = v.member("track")) e.track = m->string;
  if (const JsonValue* m = v.member("detail")) e.detail = m->string;
  if (const JsonValue* m = v.member("a")) e.a = m->as_i64();
  if (const JsonValue* m = v.member("b")) e.b = m->as_i64();
  return e;
}

std::vector<obs::DecodedEvent> events_from_json(const JsonValue* arr) {
  std::vector<obs::DecodedEvent> out;
  if (arr == nullptr || !arr->is_array()) return out;
  out.reserve(arr->array.size());
  for (const JsonValue& v : arr->array) out.push_back(event_from_json(v));
  return out;
}

/// Key identifying one get occurrence across runs: the ring truncates
/// independently per run, so positional alignment is meaningless.
std::string read_key(const obs::DecodedEvent& e) {
  return e.track + "|" + e.detail + "|" + std::to_string(e.a);
}

std::string var_key(const obs::DecodedEvent& e) {
  return e.track + "|" + e.detail;
}

constexpr const char* kCausalKinds[] = {
    "put-admit",    "put-reject",   "put-bounce",    "get-serve",
    "get-anomaly",  "get-bounce",   "spill-out",     "spill-fetch",
    "drain-ack",    "ckpt-store",   "ckpt-encode",   "ckpt-drain",
    "resilver-out", "resilver-in",  "epoch-change",  "gc-watermark",
    "gc-sweep",     "log-truncate", "restart-level", "replay-done",
    "failure",      "degradation"};

bool causal_kind(const std::string& kind) {
  for (const char* k : kCausalKinds) {
    if (kind == k) return true;
  }
  return false;
}

}  // namespace

std::span<const char* const> causal_kinds() { return kCausalKinds; }

std::string bundle_to_json(const ForensicBundle& b) {
  Json out = Json::object();
  out.set("trigger", b.trigger);
  out.set("detail", b.detail);
  out.set("repro", b.repro);
  out.set("sabotage", b.sabotage);
  out.set("trace_digest", b.trace_digest);
  out.set("reference_digest", b.reference_digest);
  out.set("events_recorded", b.events_recorded);
  out.set("events_dropped", b.events_dropped);
  Json degradations = Json::array();
  for (const std::string& d : b.degradations) degradations.push(d);
  out.set("degradations", std::move(degradations));
  Json events = Json::array();
  for (const obs::DecodedEvent& e : b.events) events.push(event_to_json(e));
  out.set("events", std::move(events));
  Json ref = Json::array();
  for (const obs::DecodedEvent& e : b.reference_events)
    ref.push(event_to_json(e));
  out.set("reference_events", std::move(ref));
  return out.str();
}

ForensicBundle bundle_from_json(const std::string& text) {
  JsonParse parsed = parse_json(text);
  if (!parsed.ok || !parsed.value.is_object()) {
    throw std::runtime_error(
        "malformed forensic bundle: " +
        (parsed.errors.empty() ? std::string("not a JSON object")
                               : parsed.errors.front()));
  }
  const JsonValue& v = parsed.value;
  ForensicBundle b;
  if (const JsonValue* m = v.member("trigger")) b.trigger = m->string;
  if (const JsonValue* m = v.member("detail")) b.detail = m->string;
  if (const JsonValue* m = v.member("repro")) b.repro = m->string;
  if (const JsonValue* m = v.member("sabotage")) b.sabotage = m->string;
  if (const JsonValue* m = v.member("trace_digest"))
    b.trace_digest = m->as_u64();
  if (const JsonValue* m = v.member("reference_digest"))
    b.reference_digest = m->as_u64();
  if (const JsonValue* m = v.member("events_recorded"))
    b.events_recorded = m->as_u64();
  if (const JsonValue* m = v.member("events_dropped"))
    b.events_dropped = m->as_u64();
  if (const JsonValue* m = v.member("degradations"); m && m->is_array()) {
    for (const JsonValue& d : m->array) b.degradations.push_back(d.string);
  }
  b.events = events_from_json(v.member("events"));
  b.reference_events = events_from_json(v.member("reference_events"));
  return b;
}

Divergence find_divergence(const ForensicBundle& b) {
  Divergence out;

  // Reference views: final get-serve checksum per (track, var, ts) and
  // final GC watermark per (track, var).
  std::map<std::string, std::int64_t> ref_reads;
  std::map<std::string, std::int64_t> ref_watermark;
  for (const obs::DecodedEvent& e : b.reference_events) {
    if (e.kind == "get-serve") {
      ref_reads[read_key(e)] = e.b;
    } else if (e.kind == "gc-watermark") {
      std::int64_t& mark = ref_watermark[var_key(e)];
      mark = std::max(mark, e.a);
    }
  }
  // Which components the schedule's REAL scheme policy obliges to replay
  // their log after a restart. Reconstructed from the repro string, not
  // the run: a sabotaged policy lies to the runtime (that is the point of
  // --break=skip-replay), so the run's own events cannot testify to what
  // should have happened — only the uncorrupted policy can.
  std::map<std::string, bool> replay_expected;
  if (!b.repro.empty()) {
    try {
      const Schedule s = Schedule::parse(b.repro);
      const core::WorkflowSpec spec = s.to_spec();
      const auto policy = core::make_scheme_policy(s.scheme);
      for (const core::ComponentSpec& c : spec.components) {
        replay_expected[c.name] = policy->replay_on_restart(c);
      }
    } catch (const std::exception&) {
      // Hand-built bundle without a parseable repro: skip the rule.
    }
  }
  // replay-done seqs per component, to test "did a replay follow?".
  std::map<std::string, std::vector<std::uint64_t>> replays;
  for (const obs::DecodedEvent& e : b.events) {
    if (e.kind == "replay-done") replays[e.detail].push_back(e.seq);
  }

  // Reads the failing run itself flagged: an anomaly event on the same
  // (track, var) means the divergence was detected, not silent — the
  // anomaly IS the finding then.
  std::map<std::string, std::uint64_t> flagged;  // var_key -> first seq
  for (const obs::DecodedEvent& e : b.events) {
    if (e.kind == "get-anomaly" && flagged.find(var_key(e)) == flagged.end())
      flagged[var_key(e)] = e.seq;
  }

  // Scan the failing run oldest-first; the first keyed mismatch wins.
  std::size_t best = b.events.size();
  std::string what;
  for (std::size_t i = 0; i < b.events.size(); ++i) {
    const obs::DecodedEvent& e = b.events[i];
    if (e.kind == "get-serve") {
      const auto it = ref_reads.find(read_key(e));
      if (it == ref_reads.end() || it->second == e.b) continue;
      if (flagged.find(var_key(e)) != flagged.end()) continue;
      best = i;
      what = "get-serve " + e.track + " read " + e.detail + " at ts " +
             std::to_string(e.a) + " with payload checksum " +
             std::to_string(static_cast<std::uint64_t>(e.b)) +
             ", reference served " +
             std::to_string(static_cast<std::uint64_t>(it->second)) +
             " — replayed read diverged silently";
      break;
    }
    if (e.kind == "gc-watermark") {
      const auto it = ref_watermark.find(var_key(e));
      const std::int64_t ref_max =
          it == ref_watermark.end() ? 0 : it->second;
      if (e.a <= ref_max) continue;
      best = i;
      what = "gc-watermark on " + e.track + " advanced " + e.detail +
             " to v" + std::to_string(e.a) +
             " past the reference's final watermark v" +
             std::to_string(ref_max) + " — over-collection";
      break;
    }
    if (e.kind == "restart-level") {
      const auto it = replay_expected.find(e.detail);
      if (it == replay_expected.end() || !it->second) continue;
      bool followed = false;
      for (const std::uint64_t seq : replays[e.detail]) {
        if (seq > e.seq) {
          followed = true;
          break;
        }
      }
      if (followed) continue;
      best = i;
      what = "restart-level: " + e.detail + " restarted at ts " +
             std::to_string(e.b) + " (level " + std::to_string(e.a) +
             ") and no replay-done followed — the scheme's log-replay "
             "re-attach step was skipped";
      break;
    }
    if (e.kind == "get-anomaly") {
      best = i;
      what = "get-anomaly on " + e.track + ": " + e.detail +
             " requested v" + std::to_string(e.a) + " but v" +
             std::to_string(e.b) +
             " was substituted (wrong-version serve, flagged)";
      break;
    }
    if (e.kind == "degradation") {
      best = i;
      what = "degradation on " + e.track + ": " + e.detail;
      break;
    }
  }
  if (best == b.events.size()) return out;  // nothing divergent survived

  out.found = true;
  out.index = best;
  out.what = std::move(what);

  // Walk backwards from the divergent event collecting its causal
  // neighborhood: events touching the same variable, plus events on the
  // same track (the component or server where it surfaced).
  constexpr std::size_t kChainCap = 16;
  const obs::DecodedEvent& pivot = b.events[best];
  std::vector<obs::DecodedEvent> chain;
  chain.push_back(pivot);
  for (std::size_t i = best; i-- > 0 && chain.size() < kChainCap;) {
    const obs::DecodedEvent& e = b.events[i];
    if (!causal_kind(e.kind)) continue;
    const bool same_var = !pivot.detail.empty() && e.detail == pivot.detail;
    const bool same_track = e.track == pivot.track;
    // Global control-plane moves (epoch bumps, failures, restarts) shape
    // everything downstream regardless of variable.
    const bool global = e.kind == "epoch-change" || e.kind == "failure" ||
                        e.kind == "restart-level" || e.kind == "replay-done";
    if (same_var || same_track || global) chain.push_back(e);
  }
  std::reverse(chain.begin(), chain.end());
  out.causal_chain = std::move(chain);
  return out;
}

}  // namespace dstage::check
