#include "graph/csr_graph.hpp"

#include <algorithm>

namespace cpart {

CsrGraph::CsrGraph(std::vector<idx_t> xadj, std::vector<idx_t> adjncy,
                   std::vector<wgt_t> vwgt, std::vector<wgt_t> adjwgt,
                   idx_t ncon)
    : xadj_(std::move(xadj)),
      adjncy_(std::move(adjncy)),
      vwgt_(std::move(vwgt)),
      adjwgt_(std::move(adjwgt)),
      ncon_(ncon) {
  validate();
}

void CsrGraph::validate() const {
  require(!xadj_.empty(), "CsrGraph: xadj must have at least one entry");
  require(xadj_.front() == 0, "CsrGraph: xadj[0] must be 0");
  require(xadj_.back() == to_idx(adjncy_.size()),
          "CsrGraph: xadj back must equal adjncy size");
  require(ncon_ >= 1, "CsrGraph: ncon must be >= 1");
  const idx_t n = num_vertices();
  for (std::size_t i = 0; i + 1 < xadj_.size(); ++i) {
    require(xadj_[i] <= xadj_[i + 1], "CsrGraph: xadj must be non-decreasing");
  }
  for (idx_t u : adjncy_) {
    require(u >= 0 && u < n, "CsrGraph: neighbour index out of range");
  }
  require(vwgt_.empty() ||
              vwgt_.size() == static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(ncon_),
          "CsrGraph: vwgt size must be n*ncon");
  require(adjwgt_.empty() || adjwgt_.size() == adjncy_.size(),
          "CsrGraph: adjwgt size must match adjncy");
  require(adjncy_.size() % 2 == 0,
          "CsrGraph: adjacency must store each undirected edge twice");
}

wgt_t CsrGraph::total_vertex_weight(idx_t c) const {
  const idx_t n = num_vertices();
  if (vwgt_.empty()) return n;
  wgt_t total = 0;
  for (idx_t v = 0; v < n; ++v) total += vertex_weight(v, c);
  return total;
}

void CsrGraph::set_vertex_weights(std::vector<wgt_t> vwgt, idx_t ncon) {
  require(ncon >= 1, "set_vertex_weights: ncon must be >= 1");
  require(vwgt.size() == static_cast<std::size_t>(num_vertices()) *
                             static_cast<std::size_t>(ncon),
          "set_vertex_weights: size must be n*ncon");
  vwgt_ = std::move(vwgt);
  ncon_ = ncon;
}

bool CsrGraph::is_symmetric() const {
  const idx_t n = num_vertices();
  // Sort each adjacency list's (neighbour, weight) pairs and check that the
  // transposed entry exists with equal weight.
  std::vector<std::vector<std::pair<idx_t, wgt_t>>> sorted(
      static_cast<std::size_t>(n));
  for (idx_t v = 0; v < n; ++v) {
    auto nbrs = neighbors(v);
    auto& lst = sorted[static_cast<std::size_t>(v)];
    lst.reserve(nbrs.size());
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      lst.emplace_back(nbrs[static_cast<std::size_t>(j)], edge_weight(v, j));
    }
    std::sort(lst.begin(), lst.end());
  }
  for (idx_t v = 0; v < n; ++v) {
    for (const auto& [u, w] : sorted[static_cast<std::size_t>(v)]) {
      if (u == v) return false;  // self loops are not allowed
      const auto& other = sorted[static_cast<std::size_t>(u)];
      if (!std::binary_search(other.begin(), other.end(),
                              std::make_pair(v, w))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cpart
