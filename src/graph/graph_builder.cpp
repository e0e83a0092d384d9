#include "graph/graph_builder.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace cpart {

GraphBuilder::GraphBuilder(idx_t num_vertices) : n_(num_vertices) {
  require(num_vertices >= 0, "GraphBuilder: negative vertex count");
}

void GraphBuilder::add_edge(idx_t u, idx_t v, wgt_t w) {
  require(u >= 0 && u < n_ && v >= 0 && v < n_,
          "GraphBuilder::add_edge: vertex out of range");
  require(u != v, "GraphBuilder::add_edge: self loops not allowed");
  require(w > 0, "GraphBuilder::add_edge: weights must be positive");
  if (u > v) std::swap(u, v);
  src_.push_back(u);
  dst_.push_back(v);
  wgt_.push_back(w);
}

void GraphBuilder::set_vertex_weights(std::vector<wgt_t> vwgt, idx_t ncon) {
  require(ncon >= 1, "GraphBuilder: ncon must be >= 1");
  require(vwgt.size() == static_cast<std::size_t>(n_) *
                             static_cast<std::size_t>(ncon),
          "GraphBuilder: vwgt size must be n*ncon");
  vwgt_ = std::move(vwgt);
  ncon_ = ncon;
}

CsrGraph GraphBuilder::build(DupPolicy duplicates) {
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t m = src_.size();

  // Bucket the (u, v, w) insertions by their lower endpoint u: a counting
  // sort, scattered back to front so off[u] ends at the start of u's bucket.
  std::vector<std::size_t> off(n + 1, 0);
  for (idx_t u : src_) ++off[static_cast<std::size_t>(u)];
  for (std::size_t u = 1; u <= n; ++u) off[u] += off[u - 1];
  std::vector<idx_t> nbr(m);
  std::vector<wgt_t> w(m);
  for (std::size_t e = m; e-- > 0;) {
    const std::size_t pos = --off[static_cast<std::size_t>(src_[e])];
    nbr[pos] = dst_[e];
    w[pos] = wgt_[e];
  }
  src_ = {};
  dst_ = {};
  wgt_ = {};

  // Sort each bucket by v and merge duplicates, compacting the unique
  // (v, w) entries to the front; off[u] is rewritten to the compacted start.
  // Buckets are short (mesh degrees), so insertion sort handles them; hub
  // rows go through std::sort on a scratch copy.
  constexpr std::size_t kInsertionSortMax = 32;
  std::vector<std::pair<idx_t, wgt_t>> scratch;
  std::size_t out = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t begin = off[u], end = off[u + 1];
    if (end - begin <= kInsertionSortMax) {
      for (std::size_t i = begin + 1; i < end; ++i) {
        const idx_t v = nbr[i];
        const wgt_t wv = w[i];
        std::size_t j = i;
        for (; j > begin && nbr[j - 1] > v; --j) {
          nbr[j] = nbr[j - 1];
          w[j] = w[j - 1];
        }
        nbr[j] = v;
        w[j] = wv;
      }
    } else {
      scratch.clear();
      for (std::size_t i = begin; i < end; ++i) {
        scratch.emplace_back(nbr[i], w[i]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = begin; i < end; ++i) {
        std::tie(nbr[i], w[i]) = scratch[i - begin];
      }
    }
    off[u] = out;
    for (std::size_t i = begin; i < end; ++i) {
      if (out > off[u] && nbr[out - 1] == nbr[i]) {
        w[out - 1] = duplicates == DupPolicy::kSum
                         ? w[out - 1] + w[i]
                         : std::max(w[out - 1], w[i]);
      } else {
        nbr[out] = nbr[i];
        w[out++] = w[i];
      }
    }
  }
  off[n] = out;

  // Mirror into CSR in (u, v) order: row x receives its lower neighbours
  // (u < x, ascending u) before its upper ones (v > x, ascending v), so
  // every row comes out ascending.
  std::vector<idx_t> xadj(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    xadj[u + 1] += to_idx(off[u + 1] - off[u]);
    for (std::size_t i = off[u]; i < off[u + 1]; ++i) {
      ++xadj[static_cast<std::size_t>(nbr[i]) + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) xadj[i] += xadj[i - 1];
  std::vector<idx_t> adjncy(static_cast<std::size_t>(xadj.back()));
  std::vector<wgt_t> adjwgt(adjncy.size());
  std::vector<idx_t> cursor(xadj.begin(), xadj.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t i = off[u]; i < off[u + 1]; ++i) {
      const auto v = static_cast<std::size_t>(nbr[i]);
      const auto cu = static_cast<std::size_t>(cursor[u]++);
      const auto cv = static_cast<std::size_t>(cursor[v]++);
      adjncy[cu] = nbr[i];
      adjwgt[cu] = w[i];
      adjncy[cv] = static_cast<idx_t>(u);
      adjwgt[cv] = w[i];
    }
  }
  CsrGraph g(std::move(xadj), std::move(adjncy), std::move(vwgt_),
             std::move(adjwgt), ncon_);
  vwgt_.clear();
  ncon_ = 1;
  return g;
}

CsrGraph make_path_graph(idx_t n) {
  GraphBuilder b(n);
  for (idx_t i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

CsrGraph make_grid_graph(idx_t nx, idx_t ny) {
  GraphBuilder b(nx * ny);
  auto id = [ny](idx_t i, idx_t j) { return i * ny + j; };
  for (idx_t i = 0; i < nx; ++i) {
    for (idx_t j = 0; j < ny; ++j) {
      if (i + 1 < nx) b.add_edge(id(i, j), id(i + 1, j));
      if (j + 1 < ny) b.add_edge(id(i, j), id(i, j + 1));
    }
  }
  return b.build();
}

CsrGraph make_grid_graph_3d(idx_t nx, idx_t ny, idx_t nz) {
  GraphBuilder b(nx * ny * nz);
  auto id = [ny, nz](idx_t i, idx_t j, idx_t k) {
    return (i * ny + j) * nz + k;
  };
  for (idx_t i = 0; i < nx; ++i) {
    for (idx_t j = 0; j < ny; ++j) {
      for (idx_t k = 0; k < nz; ++k) {
        if (i + 1 < nx) b.add_edge(id(i, j, k), id(i + 1, j, k));
        if (j + 1 < ny) b.add_edge(id(i, j, k), id(i, j + 1, k));
        if (k + 1 < nz) b.add_edge(id(i, j, k), id(i, j, k + 1));
      }
    }
  }
  return b.build();
}

}  // namespace cpart
