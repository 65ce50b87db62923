// forensics — offline post-mortem for forensic bundles dumped by the
// flight recorder (check/forensics). Loads one or more bundle JSON files
// (written by `campaign --forensics=DIR` or attached to oracle reports),
// reconstructs the causal chain backwards from the recorded events, and
// names the first event where the failing run diverged from its memoized
// failure-free reference.
//
//   forensics out/bundle-3.json
//   forensics out/*.json                  # analyze a whole campaign's dumps
//   forensics --chain-only out/bundle-3.json
//
// Exit codes: 0 = every bundle parsed and a divergence was named,
// 1 = a bundle parsed but no divergence survived the rings, 2 = bad
// input (unreadable file, malformed JSON, no files given).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/forensics.hpp"
#include "util/flags.hpp"

namespace {

using namespace dstage;

int usage() {
  std::puts(
      "usage: forensics [options] BUNDLE.json [BUNDLE.json ...]\n"
      "  --chain-only   print only the causal chain, no bundle header\n"
      "  --help         this text\n"
      "\n"
      "Bundles are written by `campaign --forensics=DIR` when a schedule\n"
      "violates an oracle invariant, the recorder notes a loud degradation,\n"
      "or an --expect-fail campaign unexpectedly passes.");
  return 2;
}

void print_event(const obs::DecodedEvent& e, const char* marker) {
  std::printf("  %s[seq %llu] t=%.6fs %-14s %s",
              marker, static_cast<unsigned long long>(e.seq),
              static_cast<double>(e.at_ns) * 1e-9, e.kind.c_str(),
              e.track.c_str());
  if (!e.detail.empty()) std::printf(" %s", e.detail.c_str());
  std::printf(" a=%lld b=%lld\n", static_cast<long long>(e.a),
              static_cast<long long>(e.b));
}

/// Analyze one bundle. Returns 0 (divergence named) or 1 (none found).
int analyze(const std::string& path, const check::ForensicBundle& b,
            bool chain_only) {
  if (!chain_only) {
    std::printf("bundle: %s\n", path.c_str());
    std::printf("  trigger:   %s\n", b.trigger.c_str());
    std::printf("  detail:    %s\n", b.detail.c_str());
    std::printf("  repro:     --repro='%s'\n", b.repro.c_str());
    std::printf("  sabotage:  %s\n", b.sabotage.c_str());
    std::printf("  digests:   run=%llu reference=%llu%s\n",
                static_cast<unsigned long long>(b.trace_digest),
                static_cast<unsigned long long>(b.reference_digest),
                b.trace_digest == b.reference_digest ? " (identical)"
                                                     : " (diverged)");
    std::printf("  recorder:  %llu events recorded, %llu lost to ring "
                "wraparound, %zu retained (%zu reference)\n",
                static_cast<unsigned long long>(b.events_recorded),
                static_cast<unsigned long long>(b.events_dropped),
                b.events.size(), b.reference_events.size());
    for (const std::string& d : b.degradations) {
      std::printf("  degradation: %s\n", d.c_str());
    }
  }

  const check::Divergence div = check::find_divergence(b);
  if (!div.found) {
    std::printf("no divergent event survived the rings (%zu events "
                "retained); re-run the repro with a larger ring if the "
                "history was truncated\n",
                b.events.size());
    return 1;
  }

  std::printf("first divergent event:\n");
  print_event(b.events[div.index], "");
  std::printf("  %s\n", div.what.c_str());
  std::printf("causal chain (oldest first, '>' = the divergent event):\n");
  for (const obs::DecodedEvent& e : div.causal_chain) {
    print_event(e, e.seq == b.events[div.index].seq ? "> " : "  ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) return usage();
  std::vector<std::string> paths = flags.positional();
  // The flag parser reads `--chain-only FILE` as a valued flag; a value
  // that is not a boolean token is really the first bundle path.
  const std::string chain_val = flags.get("chain-only", "false");
  bool chain_only =
      chain_val == "true" || chain_val == "1" || chain_val == "yes";
  if (!chain_only && chain_val != "false" && chain_val != "0" &&
      chain_val != "no") {
    chain_only = true;
    paths.insert(paths.begin(), chain_val);
  }
  for (const std::string& flag : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return usage();
  }
  if (paths.empty()) {
    std::fputs("forensics: no bundle files given\n", stderr);
    return usage();
  }

  int rc = 0;
  bool first = true;
  for (const std::string& path : paths) {
    if (!first) std::printf("\n");
    first = false;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "forensics: cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    check::ForensicBundle bundle;
    try {
      bundle = check::bundle_from_json(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "forensics: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    rc = std::max(rc, analyze(path, bundle, chain_only));
  }
  return rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
