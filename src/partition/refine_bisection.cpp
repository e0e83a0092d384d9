#include "partition/refine_bisection.hpp"

#include <algorithm>
#include <queue>

#include "graph/graph_metrics.hpp"

namespace cpart {

namespace {

/// Shared balance bookkeeping for a bisection of a multi-weight graph.
class BisectionBalance {
 public:
  BisectionBalance(const CsrGraph& g, std::span<const idx_t> part01,
                   double left_fraction, double epsilon)
      : g_(g), ncon_(g.ncon()) {
    totals_.resize(static_cast<std::size_t>(ncon_));
    side_[0].assign(static_cast<std::size_t>(ncon_), 0);
    side_[1].assign(static_cast<std::size_t>(ncon_), 0);
    for (idx_t c = 0; c < ncon_; ++c) {
      totals_[static_cast<std::size_t>(c)] = g.total_vertex_weight(c);
    }
    for (idx_t v = 0; v < g.num_vertices(); ++v) {
      const int s = part01[static_cast<std::size_t>(v)];
      for (idx_t c = 0; c < ncon_; ++c) {
        side_[s][static_cast<std::size_t>(c)] += g.vertex_weight(v, c);
      }
    }
    limit_[0].resize(static_cast<std::size_t>(ncon_));
    limit_[1].resize(static_cast<std::size_t>(ncon_));
    for (idx_t c = 0; c < ncon_; ++c) {
      const double t = static_cast<double>(totals_[static_cast<std::size_t>(c)]);
      limit_[0][static_cast<std::size_t>(c)] = (1.0 + epsilon) * left_fraction * t;
      limit_[1][static_cast<std::size_t>(c)] =
          (1.0 + epsilon) * (1.0 - left_fraction) * t;
    }
  }

  /// Applies the move of v from its current side `from` to 1-from.
  void apply(idx_t v, int from) {
    for (idx_t c = 0; c < ncon_; ++c) {
      const wgt_t w = g_.vertex_weight(v, c);
      side_[from][static_cast<std::size_t>(c)] -= w;
      side_[1 - from][static_cast<std::size_t>(c)] += w;
    }
  }

  double violation() const {
    double viol = 0;
    for (int s = 0; s < 2; ++s) {
      for (idx_t c = 0; c < ncon_; ++c) {
        const wgt_t total = totals_[static_cast<std::size_t>(c)];
        if (total == 0) continue;
        const double over = static_cast<double>(side_[s][static_cast<std::size_t>(c)]) -
                            limit_[s][static_cast<std::size_t>(c)];
        if (over > 0) viol += over / static_cast<double>(total);
      }
    }
    return viol;
  }

  /// Violation if v moved from side `from` (apply, measure, undo).
  double violation_after(idx_t v, int from) {
    apply(v, from);
    const double viol = violation();
    apply(v, 1 - from);
    return viol;
  }

 private:
  const CsrGraph& g_;
  idx_t ncon_;
  std::vector<wgt_t> totals_;
  std::vector<wgt_t> side_[2];
  std::vector<double> limit_[2];
};

struct HeapEntry {
  wgt_t gain;
  std::uint64_t stamp;
  idx_t vertex;
  bool operator<(const HeapEntry& o) const {
    if (gain != o.gain) return gain < o.gain;  // max-heap by gain
    return vertex < o.vertex;
  }
};

}  // namespace

double bisection_violation(const CsrGraph& g, std::span<const idx_t> part01,
                           double left_fraction, double epsilon) {
  BisectionBalance bal(g, part01, left_fraction, epsilon);
  return bal.violation();
}

idx_t fm_refine_bisection(const CsrGraph& g, std::span<idx_t> part01,
                          double left_fraction, double epsilon, int passes,
                          Rng& rng) {
  const idx_t n = g.num_vertices();
  require(part01.size() == static_cast<std::size_t>(n),
          "fm_refine_bisection: partition size mismatch");
  if (n == 0) return 0;

  std::vector<wgt_t> gain(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> stamp(static_cast<std::size_t>(n), 0);
  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  idx_t total_moved = 0;

  auto compute_gain = [&](idx_t v) {
    wgt_t ext = 0, internal = 0;
    auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t u = nbrs[static_cast<std::size_t>(j)];
      const wgt_t w = g.edge_weight(v, j);
      if (part01[static_cast<std::size_t>(u)] ==
          part01[static_cast<std::size_t>(v)]) {
        internal += w;
      } else {
        ext += w;
      }
    }
    return ext - internal;
  };

  for (int pass = 0; pass < passes; ++pass) {
    BisectionBalance bal(g, part01, left_fraction, epsilon);
    std::fill(locked.begin(), locked.end(), 0);

    // Heaps of candidate moves, one per source side, with lazy invalidation
    // via per-vertex stamps.
    std::priority_queue<HeapEntry> heap[2];
    std::uint64_t clock = 1;
    auto push_vertex = [&](idx_t v) {
      gain[static_cast<std::size_t>(v)] = compute_gain(v);
      stamp[static_cast<std::size_t>(v)] = ++clock;
      heap[part01[static_cast<std::size_t>(v)]].push(
          HeapEntry{gain[static_cast<std::size_t>(v)], clock, v});
    };
    // Seed with boundary vertices (all vertices for tiny graphs, so
    // balance-only moves remain possible when the boundary is empty).
    for (idx_t v = 0; v < n; ++v) {
      bool boundary = n <= 2048;
      if (!boundary) {
        for (idx_t u : g.neighbors(v)) {
          if (part01[static_cast<std::size_t>(u)] !=
              part01[static_cast<std::size_t>(v)]) {
            boundary = true;
            break;
          }
        }
      }
      if (boundary) push_vertex(v);
    }

    // Pops up to `limit` fresh (non-stale, unlocked) entries from a side's
    // heap into `out`; entries not chosen must be re-pushed by the caller.
    auto pop_fresh = [&](int side, int limit, std::vector<HeapEntry>& out) {
      auto& h = heap[side];
      limit += to_idx(out.size());  // quota is per side, not cumulative
      while (!h.empty() && to_idx(out.size()) < limit) {
        const HeapEntry e = h.top();
        h.pop();
        if (locked[static_cast<std::size_t>(e.vertex)] ||
            stamp[static_cast<std::size_t>(e.vertex)] != e.stamp ||
            part01[static_cast<std::size_t>(e.vertex)] != side) {
          continue;
        }
        out.push_back(e);
      }
    };

    // Move log for rollback to the best prefix.
    std::vector<idx_t> moves;
    double cur_viol = bal.violation();
    wgt_t cur_cut_delta = 0;  // relative to pass start
    double best_viol = cur_viol;
    wgt_t best_cut_delta = 0;
    std::size_t best_prefix = 0;

    // METIS's FM_2WayCutRefine cutoff: a pass ends once it is more than
    // this many moves past its best prefix, since a longer climb out of a
    // local optimum rarely pays for itself.
    const auto stall_limit = static_cast<std::size_t>(
        std::min<idx_t>(std::max<idx_t>(n / 100, 15), 100));
    std::vector<HeapEntry> candidates;
    while (to_idx(moves.size()) < n &&
           moves.size() - best_prefix <= stall_limit) {
      // Probe several fresh candidates from each side so that an
      // inadmissible high-gain entry cannot starve its whole side; keep the
      // admissible one with the best (violation_after, gain) ordering.
      candidates.clear();
      pop_fresh(0, 8, candidates);
      pop_fresh(1, 8, candidates);
      idx_t chosen = kInvalidIndex;
      double chosen_viol = 0;
      for (const HeapEntry& e : candidates) {
        const idx_t v = e.vertex;
        const int side = part01[static_cast<std::size_t>(v)];
        const double after = bal.violation_after(v, side);
        // Admissible: does not worsen balance; strictly-better balance moves
        // are always admissible (that is how imbalance gets repaired).
        if (after > cur_viol + 1e-12) continue;
        if (chosen == kInvalidIndex) {
          chosen = v;
          chosen_viol = after;
          continue;
        }
        // Prefer the move that repairs more violation; then higher gain;
        // then random (keeps the two sides from starving each other).
        const wgt_t gv = gain[static_cast<std::size_t>(v)];
        const wgt_t gc = gain[static_cast<std::size_t>(chosen)];
        if (after < chosen_viol - 1e-12 ||
            (std::abs(after - chosen_viol) <= 1e-12 &&
             (gv > gc || (gv == gc && rng.uniform() < 0.5)))) {
          chosen = v;
          chosen_viol = after;
        }
      }
      // Re-push unused candidates (their stamps are still current).
      for (const HeapEntry& e : candidates) {
        if (e.vertex != chosen) {
          heap[part01[static_cast<std::size_t>(e.vertex)]].push(e);
        }
      }
      if (chosen == kInvalidIndex) break;

      const int from = part01[static_cast<std::size_t>(chosen)];
      bal.apply(chosen, from);
      cur_viol = chosen_viol;
      cur_cut_delta -= gain[static_cast<std::size_t>(chosen)];
      part01[static_cast<std::size_t>(chosen)] =
          static_cast<idx_t>(1 - from);
      locked[static_cast<std::size_t>(chosen)] = 1;
      moves.push_back(chosen);

      // Refresh unlocked neighbours (gains changed by +-2w).
      for (idx_t u : g.neighbors(chosen)) {
        if (!locked[static_cast<std::size_t>(u)]) push_vertex(u);
      }

      if (cur_viol < best_viol - 1e-12 ||
          (cur_viol <= best_viol + 1e-12 && cur_cut_delta < best_cut_delta)) {
        best_viol = cur_viol;
        best_cut_delta = cur_cut_delta;
        best_prefix = moves.size();
      }
    }

    // Roll back to the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const idx_t v = moves[i - 1];
      const int from = part01[static_cast<std::size_t>(v)];
      bal.apply(v, from);
      part01[static_cast<std::size_t>(v)] = static_cast<idx_t>(1 - from);
    }
    total_moved += to_idx(best_prefix);
    if (best_prefix == 0) break;  // pass made no progress
  }
  return total_moved;
}

}  // namespace cpart
