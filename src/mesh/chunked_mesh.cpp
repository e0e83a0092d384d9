#include "mesh/chunked_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/atomic_file.hpp"
#include "util/varint.hpp"

namespace cpart {

namespace {

constexpr char kMagic[4] = {'c', 'p', 'm', 'k'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kF64Bytes = 8;
constexpr std::size_t kNodeBytes = 3 * kF64Bytes;

std::uint64_t etype_code(ElementType type) {
  switch (type) {
    case ElementType::kTri3: return 0;
    case ElementType::kQuad4: return 1;
    case ElementType::kTet4: return 2;
    case ElementType::kHex8: return 3;
  }
  return 0;
}

ElementType etype_from_code(std::uint64_t code) {
  switch (code) {
    case 0: return ElementType::kTri3;
    case 1: return ElementType::kQuad4;
    case 2: return ElementType::kTet4;
    case 3: return ElementType::kHex8;
  }
  throw InputError("chunked mesh: unknown element-type code " +
                   std::to_string(code));
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw InputError("chunked mesh " + path + ": " + what);
}

idx_t checked_idx(std::uint64_t v, const std::string& path, const char* what) {
  if (v > static_cast<std::uint64_t>(std::numeric_limits<idx_t>::max())) {
    fail(path, std::string(what) + " out of idx_t range");
  }
  return static_cast<idx_t>(v);
}

}  // namespace

ChunkedMeshWriter::ChunkedMeshWriter(const std::string& path, ElementType type,
                                     idx_t num_nodes, idx_t num_elements,
                                     idx_t nodes_per_block,
                                     idx_t elems_per_block)
    : out_(path + ".tmp", std::ios::binary | std::ios::trunc),
      path_(path),
      type_(type),
      npe_(nodes_per_element(type)),
      num_nodes_(num_nodes),
      num_elements_(num_elements),
      nodes_per_block_(nodes_per_block),
      elems_per_block_(elems_per_block) {
  require(static_cast<bool>(out_), "chunked mesh " + path + ": cannot open");
  require(num_nodes >= 0 && num_elements >= 0,
          "chunked mesh: negative counts");
  require(nodes_per_block >= 1 && elems_per_block >= 1,
          "chunked mesh: block sizes must be >= 1");
  std::string header(kMagic, sizeof(kMagic));
  header.push_back(static_cast<char>(kVersion));
  append_varint(header, etype_code(type));
  append_varint(header, static_cast<std::uint64_t>(num_nodes));
  append_varint(header, static_cast<std::uint64_t>(num_elements));
  append_varint(header, static_cast<std::uint64_t>(nodes_per_block));
  append_varint(header, static_cast<std::uint64_t>(elems_per_block));
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
}

ChunkedMeshWriter::~ChunkedMeshWriter() {
  // An abandoned writer (exception before finish()) leaves the final path
  // untouched; drop the partial temp file best-effort.
  if (!finished_) {
    out_.close();
    FileShim::real().remove_file(path_ + ".tmp");
  }
}

void ChunkedMeshWriter::flush_node_block() {
  if (buf_nodes_ == 0) return;
  std::string len;
  append_varint(len, static_cast<std::uint64_t>(node_buf_.size()));
  out_.write(len.data(), static_cast<std::streamsize>(len.size()));
  out_.write(node_buf_.data(), static_cast<std::streamsize>(node_buf_.size()));
  node_buf_.clear();
  buf_nodes_ = 0;
}

void ChunkedMeshWriter::flush_element_block() {
  if (buf_elems_ == 0) return;
  std::string len;
  append_varint(len, static_cast<std::uint64_t>(elem_buf_.size()));
  out_.write(len.data(), static_cast<std::streamsize>(len.size()));
  out_.write(elem_buf_.data(), static_cast<std::streamsize>(elem_buf_.size()));
  elem_buf_.clear();
  buf_elems_ = 0;
}

void ChunkedMeshWriter::add_node(Vec3 p) {
  require(!finished_ && elements_added_ == 0 && buf_elems_ == 0,
          "chunked mesh: nodes must precede elements");
  require(nodes_added_ < num_nodes_, "chunked mesh: too many nodes");
  append_f64(node_buf_, p.x);
  append_f64(node_buf_, p.y);
  append_f64(node_buf_, p.z);
  ++nodes_added_;
  if (++buf_nodes_ == nodes_per_block_) flush_node_block();
}

void ChunkedMeshWriter::add_element(std::span<const idx_t> conn) {
  require(!finished_, "chunked mesh: writer already finished");
  require(to_idx(conn.size()) == npe_,
          "chunked mesh: element arity mismatch");
  if (elements_added_ == 0) {
    require(nodes_added_ == num_nodes_,
            "chunked mesh: node count mismatch before first element");
    flush_node_block();
  }
  require(elements_added_ < num_elements_, "chunked mesh: too many elements");
  for (idx_t id : conn) {
    require(id >= 0 && id < num_nodes_,
            "chunked mesh: element references node out of range");
    append_varint(elem_buf_, static_cast<std::uint64_t>(id));
  }
  ++elements_added_;
  if (++buf_elems_ == elems_per_block_) flush_element_block();
}

void ChunkedMeshWriter::finish() {
  require(!finished_, "chunked mesh: finish() called twice");
  require(nodes_added_ == num_nodes_,
          "chunked mesh: node count mismatch at finish");
  require(elements_added_ == num_elements_,
          "chunked mesh: element count mismatch at finish");
  flush_node_block();
  flush_element_block();
  out_.flush();
  require(static_cast<bool>(out_), "chunked mesh " + path_ + ": write failed");
  out_.close();
  // Durable commit: the file streamed under a temp name; sync + rename make
  // it appear at the final path all-or-nothing, so a crash mid-stream (or
  // mid-finish) never leaves a torn mesh where a reader expects one.
  require(atomic_finalize_file(path_ + ".tmp", path_),
          "chunked mesh " + path_ + ": atomic finalize failed");
  finished_ = true;
}

void write_chunked_mesh(const std::string& path, const Mesh& mesh,
                        idx_t nodes_per_block, idx_t elems_per_block) {
  ChunkedMeshWriter w(path, mesh.element_type(), mesh.num_nodes(),
                      mesh.num_elements(), nodes_per_block, elems_per_block);
  for (idx_t i = 0; i < mesh.num_nodes(); ++i) w.add_node(mesh.node(i));
  for (idx_t e = 0; e < mesh.num_elements(); ++e) w.add_element(mesh.element(e));
  w.finish();
}

ChunkedMeshReader::ChunkedMeshReader(const std::string& path, Options options)
    : in_(path, std::ios::binary),
      path_(path),
      max_resident_blocks_(options.max_resident_blocks) {
  if (!in_) fail(path_, "cannot open");
  require(max_resident_blocks_ >= 1,
          "chunked mesh: max_resident_blocks must be >= 1");

  in_.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);

  // Parse the fixed header from a small prefix read (its varints cannot
  // exceed 4 + 1 + 5 * 10 bytes).
  std::string prefix(std::min<std::uint64_t>(file_size, 64), '\0');
  in_.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  if (prefix.size() < sizeof(kMagic) + 1 ||
      std::memcmp(prefix.data(), kMagic, sizeof(kMagic)) != 0) {
    fail(path_, "bad magic");
  }
  const auto version = static_cast<std::uint8_t>(prefix[4]);
  if (version != kVersion) {
    fail(path_, "unsupported version " + std::to_string(version));
  }
  std::size_t pos = 5;
  std::uint64_t code = 0, nn = 0, ne = 0, npb = 0, epb = 0;
  if (!read_varint(prefix, pos, code) || !read_varint(prefix, pos, nn) ||
      !read_varint(prefix, pos, ne) || !read_varint(prefix, pos, npb) ||
      !read_varint(prefix, pos, epb)) {
    fail(path_, "truncated header");
  }
  type_ = etype_from_code(code);
  npe_ = cpart::nodes_per_element(type_);
  num_nodes_ = checked_idx(nn, path_, "node count");
  num_elements_ = checked_idx(ne, path_, "element count");
  if (npb < 1 || epb < 1) fail(path_, "block sizes must be >= 1");
  nodes_per_block_ = checked_idx(npb, path_, "nodes_per_block");
  elems_per_block_ = checked_idx(epb, path_, "elems_per_block");

  // Scan the block headers (seeking over payloads) to build the offset
  // index; the scan touches ceil(N/B) + ceil(M/B) varints, never a payload.
  std::uint64_t offset = pos;
  const idx_t n_node_blocks =
      num_nodes_ == 0 ? 0 : ceil_div(num_nodes_, nodes_per_block_);
  const idx_t n_elem_blocks =
      num_elements_ == 0 ? 0 : ceil_div(num_elements_, elems_per_block_);
  node_blocks_.reserve(static_cast<std::size_t>(n_node_blocks));
  elem_blocks_.reserve(static_cast<std::size_t>(n_elem_blocks));
  for (idx_t b = 0; b < n_node_blocks + n_elem_blocks; ++b) {
    const bool is_node = b < n_node_blocks;
    if (offset >= file_size) fail(path_, "truncated block index");
    std::string head(std::min<std::uint64_t>(file_size - offset, 10), '\0');
    in_.seekg(static_cast<std::streamoff>(offset));
    in_.read(head.data(), static_cast<std::streamsize>(head.size()));
    std::size_t hpos = 0;
    std::uint64_t payload = 0;
    if (!read_varint(head, hpos, payload)) fail(path_, "bad block length");
    offset += hpos;
    if (offset + payload > file_size) fail(path_, "truncated block payload");
    BlockRef ref{offset, payload};
    if (is_node) {
      const idx_t first = to_idx(node_blocks_.size()) * nodes_per_block_;
      const idx_t count = std::min(nodes_per_block_, num_nodes_ - first);
      if (payload != static_cast<std::uint64_t>(count) * kNodeBytes) {
        fail(path_, "node block payload size mismatch");
      }
      node_blocks_.push_back(ref);
    } else {
      elem_blocks_.push_back(ref);
    }
    offset += payload;
  }
  if (offset != file_size) fail(path_, "trailing garbage after last block");
  window_.reserve(static_cast<std::size_t>(max_resident_blocks_));
}

std::string ChunkedMeshReader::read_payload(const BlockRef& ref,
                                            const char* what) {
  std::string payload(static_cast<std::size_t>(ref.payload_bytes), '\0');
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(ref.offset));
  in_.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in_) fail(path_, std::string("cannot read ") + what);
  return payload;
}

ChunkedMeshReader::Resident& ChunkedMeshReader::fetch(bool is_node,
                                                      idx_t index) {
  ++use_tick_;
  for (auto& r : window_) {
    if (r.is_node == is_node && r.index == index) {
      r.last_use = use_tick_;
      return r;
    }
  }
  Resident* slot = nullptr;
  if (to_idx(window_.size()) < max_resident_blocks_) {
    slot = &window_.emplace_back();
  } else {
    slot = &*std::min_element(
        window_.begin(), window_.end(),
        [](const Resident& a, const Resident& b) {
          return a.last_use < b.last_use;
        });
    resident_bytes_ -= slot->bytes();
    slot->coords.clear();
    slot->conn.clear();
  }
  slot->is_node = is_node;
  slot->index = index;
  slot->last_use = use_tick_;
  if (is_node) {
    const BlockRef& ref = node_blocks_[static_cast<std::size_t>(index)];
    const std::string payload = read_payload(ref, "node block");
    const std::size_t count = payload.size() / kNodeBytes;
    slot->coords.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const char* p = payload.data() + i * kNodeBytes;
      slot->coords[i] = Vec3{read_f64(p), read_f64(p + kF64Bytes),
                             read_f64(p + 2 * kF64Bytes)};
    }
  } else {
    const BlockRef& ref = elem_blocks_[static_cast<std::size_t>(index)];
    const std::string payload = read_payload(ref, "element block");
    const idx_t first = index * elems_per_block_;
    const idx_t count = std::min(elems_per_block_, num_elements_ - first);
    const std::size_t ids =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(npe_);
    slot->conn.resize(ids);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < ids; ++i) {
      std::uint64_t id = 0;
      if (!read_varint(payload, pos, id)) {
        fail(path_, "truncated element connectivity");
      }
      if (id >= static_cast<std::uint64_t>(num_nodes_)) {
        fail(path_, "element references node out of range");
      }
      slot->conn[i] = static_cast<idx_t>(id);
    }
    if (pos != payload.size()) {
      fail(path_, "element block payload size mismatch");
    }
  }
  resident_bytes_ += slot->bytes();
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  return *slot;
}

std::span<const Vec3> ChunkedMeshReader::node_block(idx_t b) {
  require(b >= 0 && b < num_node_blocks(),
          "chunked mesh: node block index out of range");
  return fetch(true, b).coords;
}

std::span<const idx_t> ChunkedMeshReader::element_block(idx_t b) {
  require(b >= 0 && b < num_element_blocks(),
          "chunked mesh: element block index out of range");
  return fetch(false, b).conn;
}

Vec3 ChunkedMeshReader::node(idx_t i) {
  require(i >= 0 && i < num_nodes_, "chunked mesh: node id out of range");
  const idx_t b = i / nodes_per_block_;
  return node_block(b)[static_cast<std::size_t>(i % nodes_per_block_)];
}

std::size_t ChunkedMeshReader::window_limit_bytes() const {
  const std::size_t node_bytes =
      static_cast<std::size_t>(nodes_per_block_) * sizeof(Vec3);
  const std::size_t elem_bytes = static_cast<std::size_t>(elems_per_block_) *
                                 static_cast<std::size_t>(npe_) *
                                 sizeof(idx_t);
  return static_cast<std::size_t>(max_resident_blocks_) *
         std::max(node_bytes, elem_bytes);
}

Mesh ChunkedMeshReader::load_mesh() {
  std::vector<Vec3> nodes;
  nodes.reserve(static_cast<std::size_t>(num_nodes_));
  for (idx_t b = 0; b < num_node_blocks(); ++b) {
    const auto block = node_block(b);
    nodes.insert(nodes.end(), block.begin(), block.end());
  }
  std::vector<idx_t> conn;
  conn.reserve(static_cast<std::size_t>(num_elements_) *
               static_cast<std::size_t>(npe_));
  for (idx_t b = 0; b < num_element_blocks(); ++b) {
    const auto block = element_block(b);
    conn.insert(conn.end(), block.begin(), block.end());
  }
  return Mesh(type_, std::move(nodes), std::move(conn));
}

LargeImpactSpec LargeImpactSpec::for_elements(idx_t min_elements) {
  LargeImpactSpec spec;
  const double side = std::cbrt(static_cast<double>(std::max<idx_t>(
      min_elements, 1)));
  const idx_t s = std::max<idx_t>(1, static_cast<idx_t>(std::ceil(side)));
  spec.nx = spec.ny = spec.nz = s;
  return spec;
}

ChunkedMeshInfo make_large_impact(const std::string& path,
                                  const LargeImpactSpec& spec) {
  require(spec.nx >= 1 && spec.ny >= 1 && spec.nz >= 1,
          "make_large_impact: bad plate cell counts");
  const idx_t m = spec.impactor_cells > 0 ? spec.impactor_cells
                                          : std::max<idx_t>(spec.nx / 5, 1);
  // Unit cell size: the plate spans [0,nx]x[0,ny]x[0,nz]; the impactor cube
  // hovers half a cell above the plate center.
  const real_t gap = 0.5;
  const real_t ix0 = (static_cast<real_t>(spec.nx) - static_cast<real_t>(m)) / 2;
  const real_t iy0 = (static_cast<real_t>(spec.ny) - static_cast<real_t>(m)) / 2;
  const real_t iz0 = static_cast<real_t>(spec.nz) + gap;

  const std::uint64_t plate_nodes = static_cast<std::uint64_t>(spec.nx + 1) *
                                    static_cast<std::uint64_t>(spec.ny + 1) *
                                    static_cast<std::uint64_t>(spec.nz + 1);
  const std::uint64_t impactor_nodes = static_cast<std::uint64_t>(m + 1) *
                                       static_cast<std::uint64_t>(m + 1) *
                                       static_cast<std::uint64_t>(m + 1);
  const std::uint64_t plate_elems = static_cast<std::uint64_t>(spec.nx) *
                                    static_cast<std::uint64_t>(spec.ny) *
                                    static_cast<std::uint64_t>(spec.nz);
  const std::uint64_t impactor_elems = static_cast<std::uint64_t>(m) *
                                       static_cast<std::uint64_t>(m) *
                                       static_cast<std::uint64_t>(m);
  const idx_t num_nodes = checked_idx(plate_nodes + impactor_nodes, path,
                                      "generated node count");
  const idx_t num_elements = checked_idx(plate_elems + impactor_elems, path,
                                         "generated element count");

  ChunkedMeshWriter w(path, ElementType::kHex8, num_nodes, num_elements,
                      spec.nodes_per_block, spec.elems_per_block);

  // Node ids follow the structured-grid convention of mesh/generators.cpp:
  // (i * (ny+1) + j) * (nz+1) + k, plate grid first, impactor grid offset
  // by the plate node count.
  for (idx_t i = 0; i <= spec.nx; ++i) {
    for (idx_t j = 0; j <= spec.ny; ++j) {
      for (idx_t k = 0; k <= spec.nz; ++k) {
        w.add_node(Vec3{static_cast<real_t>(i), static_cast<real_t>(j),
                        static_cast<real_t>(k)});
      }
    }
  }
  for (idx_t i = 0; i <= m; ++i) {
    for (idx_t j = 0; j <= m; ++j) {
      for (idx_t k = 0; k <= m; ++k) {
        w.add_node(Vec3{ix0 + static_cast<real_t>(i),
                        iy0 + static_cast<real_t>(j),
                        iz0 + static_cast<real_t>(k)});
      }
    }
  }

  const auto grid_id = [](idx_t i, idx_t j, idx_t k, idx_t ny, idx_t nz) {
    return (i * (ny + 1) + j) * (nz + 1) + k;
  };
  const auto emit_cells = [&](idx_t nx, idx_t ny, idx_t nz, idx_t base) {
    for (idx_t i = 0; i < nx; ++i) {
      for (idx_t j = 0; j < ny; ++j) {
        for (idx_t k = 0; k < nz; ++k) {
          const idx_t corners[8] = {
              base + grid_id(i, j, k, ny, nz),
              base + grid_id(i + 1, j, k, ny, nz),
              base + grid_id(i + 1, j + 1, k, ny, nz),
              base + grid_id(i, j + 1, k, ny, nz),
              base + grid_id(i, j, k + 1, ny, nz),
              base + grid_id(i + 1, j, k + 1, ny, nz),
              base + grid_id(i + 1, j + 1, k + 1, ny, nz),
              base + grid_id(i, j + 1, k + 1, ny, nz)};
          w.add_element(corners);
        }
      }
    }
  };
  emit_cells(spec.nx, spec.ny, spec.nz, 0);
  emit_cells(m, m, m, to_idx(plate_nodes));
  w.finish();
  return ChunkedMeshInfo{num_nodes, num_elements};
}

}  // namespace cpart
