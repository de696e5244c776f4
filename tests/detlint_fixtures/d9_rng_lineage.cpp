// detlint fixture: rule D9 (RNG fork lineage), firing and clean cases.
//
// Draws inside parallel regions must come from substreams forked inside the
// region; chunk-pure bodies must fork their root before drawing; fork labels
// must be unique, separator-terminated, and loop-dependent. Deliberately NOT
// compiled; the local Rng, SplitMixRng and parallel_for stand in for the
// real headers.
#define BGPCMP_PURE_CHUNK

namespace fixture_d9 {

class SplitMixRng {
 public:
  explicit SplitMixRng(unsigned long seed);
  unsigned long next();
  unsigned long below(unsigned long n);
};

class Rng {
 public:
  explicit Rng(unsigned long seed);
  Rng fork(const char* label) const;
  SplitMixRng fork_splitmix(const char* label) const;
  unsigned uniform_int(unsigned bound);
  double uniform();
};

const char* to_string(int v);
const char* operator+(const char* a, const char* b);

template <typename Body>
void parallel_for(unsigned long n, Body body);

inline unsigned draw_from(Rng& r, unsigned bound) { return r.uniform_int(bound); }
inline unsigned long ci_draw_from(SplitMixRng& r, unsigned long n) { return r.below(n); }

// -- chunk-pure bodies -------------------------------------------------------

// Raw draw on the unforked root: chunk output couples through the root
// cursor, so chunk order would change the bytes.
BGPCMP_PURE_CHUNK
inline unsigned chunk_raw_draw(unsigned c) {
  Rng root{c};
  return root.uniform_int(100);  // expect: D9
}

// Same leak one hop down the call graph, through a non-const Rng&.
BGPCMP_PURE_CHUNK
inline unsigned chunk_leaked_root(unsigned c) {
  Rng root{c};
  return draw_from(root, 100);  // expect: D9
}

// Clean: the root is forked with a chunk-derived label; draws happen on the
// substream only.
BGPCMP_PURE_CHUNK
inline unsigned chunk_forked(unsigned c) {
  Rng root{17};
  auto sub = root.fork("chunk-" + to_string(static_cast<int>(c)));
  return sub.uniform_int(100);
}

// The same hazards on a SplitMix stream: a raw draw on an unforked root, and
// the root leaked one hop down through a non-const SplitMixRng&.
BGPCMP_PURE_CHUNK
inline unsigned long chunk_ci_raw_draw(unsigned c) {
  SplitMixRng root{c};
  return root.below(100);  // expect: D9
}

BGPCMP_PURE_CHUNK
inline unsigned long chunk_ci_leaked_root(unsigned c) {
  SplitMixRng root{c};
  return ci_draw_from(root, 100);  // expect: D9
}

// Clean: the SplitMix stream is forked from the root with a chunk label.
BGPCMP_PURE_CHUNK
inline unsigned long chunk_ci_forked(unsigned c) {
  Rng root{17};
  SplitMixRng ci = root.fork_splitmix("ci-" + to_string(static_cast<int>(c)));
  return ci.below(100);
}

// -- parallel regions --------------------------------------------------------

// Draw on an Rng declared outside the region: draw order depends on thread
// interleaving.
inline void region_raw_draw(Rng& rng) {
  parallel_for(8, [&](unsigned long i) {
    (void)rng.uniform_int(static_cast<unsigned>(i));  // expect: D9
  });
}

// The same hazard hidden behind a call that draws through a non-const Rng&.
inline void region_leaked(Rng& rng) {
  parallel_for(8, [&](unsigned long i) {
    (void)draw_from(rng, static_cast<unsigned>(i));  // expect: D9
  });
}

// Clean: a per-item substream forked inside the region.
inline void region_forked(Rng& rng) {
  parallel_for(8, [&](unsigned long i) {
    auto sub = rng.fork("item-" + to_string(static_cast<int>(i)));
    (void)sub.uniform_int(9);
  });
}

// A SplitMix stream declared outside the region, drawn directly and through
// a callee.
inline void region_ci_draw(SplitMixRng& ci) {
  parallel_for(8, [&](unsigned long i) {
    (void)ci.below(i + 1);  // expect: D9
  });
}

inline void region_ci_leaked(SplitMixRng& ci) {
  parallel_for(8, [&](unsigned long i) {
    (void)ci_draw_from(ci, i + 1);  // expect: D9
  });
}

// Clean: one SplitMix stream per item, forked inside the region.
inline void region_ci_forked(const Rng& rng) {
  parallel_for(8, [&](unsigned long i) {
    SplitMixRng ci = rng.fork_splitmix("ci-" + to_string(static_cast<int>(i)));
    (void)ci.below(9);
  });
}

// -- fork-label hygiene ------------------------------------------------------

// Identical labels on the same receiver yield identical substreams.
inline void duplicate_labels(Rng& rng) {
  auto a = rng.fork("alpha");
  auto b = rng.fork("alpha");  // expect: D9
  (void)a;
  (void)b;
}

// A dynamic label whose literal prefix ends in an alphanumeric: "s1"+"2"
// and "s12"+"" produce the same label.
inline Rng collision_prone(Rng& rng, int i) {
  return rng.fork("s" + to_string(i));  // expect: D9
}

// A loop-body fork whose label depends on nothing the loop binds: every
// iteration forks the same substream.
inline void loop_invariant(Rng& rng, int n) {
  for (int i = 0; i < n; ++i) {
    auto sub = rng.fork("fixed-tag");  // expect: D9
    (void)sub;
  }
}

// The same for a SplitMix fork: every window would redraw one CI stream.
inline void loop_invariant_ci(const Rng& rng, int n) {
  for (int w = 0; w < n; ++w) {
    SplitMixRng ci = rng.fork_splitmix("ci-pair");  // expect: D9
    (void)ci.below(4);
  }
}

// Clean: the label folds in the loop variable, with a separator-terminated
// prefix.
inline void loop_dependent(Rng& rng, int n) {
  for (int i = 0; i < n; ++i) {
    auto sub = rng.fork("it-" + to_string(i));
    (void)sub;
  }
}

}  // namespace fixture_d9
