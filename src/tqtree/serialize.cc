#include "tqtree/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/crc32c.h"
#include "tqtree/aggregates.h"
#include "tqtree/point_raster.h"

namespace tq {

namespace {

constexpr char kMagic[4] = {'T', 'Q', 'T', '2'};
constexpr uint32_t kVersion = 2;
/// Page-record index that terminates the page stream (no real page can
/// reach it: node ids are int32, so page indexes stay far below).
constexpr uint32_t kTrailerSentinel = 0xFFFFFFFFu;

template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutRect(std::string* out, const Rect& r) {
  PutPod(out, r.min_x);
  PutPod(out, r.min_y);
  PutPod(out, r.max_x);
  PutPod(out, r.max_y);
}

/// Sequential pod reader over a fully-buffered record.
class PodReader {
 public:
  explicit PodReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T* v) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool GetRect(Rect* r) {
    return Get(&r->min_x) && Get(&r->min_y) && Get(&r->max_x) &&
           Get(&r->max_y);
  }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// The packed header fields the geometry hash covers (and the header
/// carries), in stream order.
void PackGeometry(const TQTreeOptions& opt, const Rect& world,
                  std::string* out) {
  PutPod(out, static_cast<uint64_t>(opt.beta));
  PutPod(out, static_cast<int32_t>(opt.max_depth));
  PutPod(out, static_cast<uint8_t>(opt.variant));
  PutPod(out, static_cast<uint8_t>(opt.mode));
  PutPod(out, static_cast<uint8_t>(opt.model.scenario));
  PutPod(out, static_cast<uint8_t>(opt.model.normalization));
  PutPod(out, opt.model.psi);
  PutPod(out, static_cast<uint8_t>(opt.basic_entry_mbr_precheck));
  PutPod(out, static_cast<uint64_t>(PointRaster::kResolution));
  PutRect(out, world);
}

Status Truncated(const char* where) {
  return Status::InvalidArgument(std::string("snapshot stream truncated in ") +
                                 where);
}

/// Reads exactly `n` bytes into `buf`, mapping source errors to "truncated"
/// when the source reports a clean end (kInvalidArgument).
Status ReadExact(SnapshotSource* source, std::string* buf, size_t n,
                 const char* where) {
  buf->resize(n);
  Status st = source->Read(buf->data(), n);
  if (!st.ok() && st.code() == StatusCode::kInvalidArgument) {
    return Truncated(where);
  }
  return st;
}

}  // namespace

// ---------------------------------------------------------------- sinks

FileSnapshotSink::~FileSnapshotSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<FileSnapshotSink>> FileSnapshotSink::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot write " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<FileSnapshotSink>(new FileSnapshotSink(f, path));
}

Status FileSnapshotSink::Append(const void* data, size_t n) {
  if (file_ == nullptr) return Status::Internal("sink closed: " + path_);
  if (std::fwrite(data, 1, n, file_) != n) {
    return Status::IOError("short write to " + path_);
  }
  return Status::OK();
}

Status FileSnapshotSink::Close(bool sync) {
  if (file_ == nullptr) return Status::OK();
  std::FILE* f = file_;
  file_ = nullptr;
  bool ok = std::fflush(f) == 0;
  if (ok && sync) ok = ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::IOError("close failed for " + path_);
  return Status::OK();
}

FileSnapshotSource::~FileSnapshotSource() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<FileSnapshotSource>> FileSnapshotSource::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<FileSnapshotSource>(new FileSnapshotSource(f, path));
}

Status FileSnapshotSource::Read(void* data, size_t n) {
  if (std::fread(data, 1, n, file_) != n) {
    if (std::feof(file_)) {
      return Status::InvalidArgument("end of stream: " + path_);
    }
    return Status::IOError("read failed for " + path_);
  }
  return Status::OK();
}

Status StringSnapshotSource::Read(void* data, size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument("end of stream (memory source)");
  }
  std::memcpy(data, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

uint64_t TQTreeGeometryHash(const TQTreeOptions& options, const Rect& world) {
  std::string packed;
  PackGeometry(options, world, &packed);
  // FNV-1a over the packed bytes: stable across runs (no pointer or seed
  // material), cheap, and collision-safe enough for a mismatch CHECK — the
  // page CRCs handle corruption.
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : packed) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Friend of TQTree with raw access to pages_ / bookkeeping.
class TQTreeSerializer {
 public:
  static Status Write(const TQTree& tree, SnapshotSink* sink) {
    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    PutPod(&buf, kVersion);
    PackGeometry(tree.options_, tree.world_, &buf);
    PutPod(&buf, TQTreeGeometryHash(tree.options_, tree.world_));
    PutPod(&buf, static_cast<uint64_t>(tree.users_->size()));
    PutPod(&buf, static_cast<uint64_t>(tree.num_nodes_));
    const uint32_t header_crc =
        Crc32c(buf.data() + sizeof(kMagic), buf.size() - sizeof(kMagic));
    PutPod(&buf, header_crc);
    TQ_RETURN_NOT_OK(sink->Append(buf.data(), buf.size()));

    // One record per node page: the checkpointer streams a retained fork
    // without ever materialising the whole image, and a per-record CRC
    // localises corruption to a page.
    std::string record;
    for (size_t p = 0; p * kNodePageSize < tree.num_nodes_; ++p) {
      const size_t first = p * kNodePageSize;
      const auto in_page = static_cast<uint32_t>(
          std::min(kNodePageSize, tree.num_nodes_ - first));
      record.clear();
      PutPod(&record, static_cast<uint32_t>(p));
      PutPod(&record, in_page);
      for (uint32_t i = 0; i < in_page; ++i) {
        const TQNode& n = tree.node(static_cast<int32_t>(first + i));
        PutRect(&record, n.rect);
        PutPod(&record, n.first_child);
        PutPod(&record, n.depth);
        PutPod(&record, n.split_failed_at);
        PutPod(&record, static_cast<uint32_t>(n.entries.size()));
        for (const TrajEntry& e : n.entries) {
          PutPod(&record, e.traj_id);
          PutPod(&record, e.seg_index);
        }
      }
      const uint32_t record_crc = Crc32c(record.data(), record.size());
      PutPod(&record, record_crc);
      TQ_RETURN_NOT_OK(sink->Append(record.data(), record.size()));
    }

    record.clear();
    PutPod(&record, kTrailerSentinel);
    PutPod(&record, static_cast<uint64_t>(tree.num_units_));
    const uint32_t trailer_crc = Crc32c(record.data(), record.size());
    PutPod(&record, trailer_crc);
    return sink->Append(record.data(), record.size());
  }

  static Result<std::unique_ptr<TQTree>> Read(SnapshotSource* source,
                                              const TrajectorySet* users) {
    if (users == nullptr) {
      return Status::InvalidArgument(
          "ReadTQTreeSnapshot: null user set (pass the trajectory set the "
          "tree was built over)");
    }
    // Fixed-size header: everything before the page records.
    std::string geom;
    PackGeometry(TQTreeOptions{}, Rect::Of(0, 0, 1, 1), &geom);
    const size_t header_len = sizeof(kMagic) + sizeof(uint32_t) + geom.size() +
                              3 * sizeof(uint64_t) + sizeof(uint32_t);
    std::string buf;
    TQ_RETURN_NOT_OK(ReadExact(source, &buf, header_len, "header"));
    if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::InvalidArgument("not a TQ-tree snapshot stream");
    }
    {
      // Header CRC covers version + geometry + counts (not the magic).
      const size_t body = buf.size() - sizeof(kMagic) - sizeof(uint32_t);
      uint32_t stored = 0;
      std::memcpy(&stored, buf.data() + buf.size() - sizeof(uint32_t),
                  sizeof(uint32_t));
      if (Crc32c(buf.data() + sizeof(kMagic), body) != stored) {
        return Status::InvalidArgument("snapshot header CRC mismatch");
      }
    }
    PodReader r(std::string_view(buf).substr(sizeof(kMagic)));
    uint32_t version = 0;
    if (!r.Get(&version)) return Truncated("header");
    if (version != kVersion) {
      return Status::InvalidArgument(
          "unsupported snapshot format version " + std::to_string(version) +
          " (this build reads version " + std::to_string(kVersion) + ")");
    }
    TQTreeOptions opt;
    uint64_t beta = 0, raster_res = 0;
    int32_t max_depth = 0;
    uint8_t variant = 0, mode = 0, scenario = 0, norm = 0, precheck = 0;
    Rect world;
    uint64_t geometry_hash = 0, users_size = 0, node_count = 0;
    if (!r.Get(&beta) || !r.Get(&max_depth) || !r.Get(&variant) ||
        !r.Get(&mode) || !r.Get(&scenario) || !r.Get(&norm) ||
        !r.Get(&opt.model.psi) || !r.Get(&precheck) || !r.Get(&raster_res) ||
        !r.GetRect(&world) || !r.Get(&geometry_hash) || !r.Get(&users_size) ||
        !r.Get(&node_count)) {
      return Truncated("header");
    }
    if (variant > 1 || mode > 1 || scenario > 2 || norm > 1 || beta == 0) {
      return Status::InvalidArgument("corrupt snapshot header fields");
    }
    if (raster_res != PointRaster::kResolution) {
      return Status::InvalidArgument(
          "unsupported snapshot raster resolution " +
          std::to_string(raster_res) + " (this build uses " +
          std::to_string(PointRaster::kResolution) + ")");
    }
    opt.beta = beta;
    opt.max_depth = max_depth;
    opt.variant = static_cast<IndexVariant>(variant);
    opt.mode = static_cast<TrajMode>(mode);
    opt.model.scenario = static_cast<Scenario>(scenario);
    opt.model.normalization = static_cast<Normalization>(norm);
    opt.basic_entry_mbr_precheck = precheck != 0;
    if (TQTreeGeometryHash(opt, world) != geometry_hash) {
      return Status::InvalidArgument(
          "snapshot geometry hash mismatch (stream corrupt, or written by "
          "an incompatible geometry)");
    }
    if (users_size != users->size()) {
      return Status::InvalidArgument(
          "user-set size mismatch (snapshot built over " +
          std::to_string(users_size) + " trajectories, given " +
          std::to_string(users->size()) + ")");
    }
    if (node_count == 0 || node_count > (1ull << 31)) {
      return Status::InvalidArgument("implausible snapshot node count");
    }

    auto tree = std::unique_ptr<TQTree>(
        new TQTree(users, opt, TQTree::DeserializeTag{}));
    tree->world_ = world;
    // Freshly allocated pages all carry the tree's own epoch, so the
    // MutableNode calls below never trigger copy-on-write.
    tree->ResizeNodes(node_count);
    const size_t num_pages =
        (node_count + kNodePageSize - 1) / kNodePageSize;
    for (size_t p = 0; p < num_pages; ++p) {
      TQ_RETURN_NOT_OK(LoadPage(tree.get(), users, opt, p, node_count,
                                source));
    }
    // Trailer: sentinel + unit count, CRC-checked like a page record.
    std::string trailer;
    TQ_RETURN_NOT_OK(ReadExact(
        source, &trailer,
        sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t), "trailer"));
    {
      uint32_t stored = 0;
      std::memcpy(&stored, trailer.data() + trailer.size() - sizeof(uint32_t),
                  sizeof(uint32_t));
      if (Crc32c(trailer.data(), trailer.size() - sizeof(uint32_t)) !=
          stored) {
        return Status::InvalidArgument("snapshot trailer CRC mismatch");
      }
      PodReader tr(std::string_view(trailer.data(),
                                    trailer.size() - sizeof(uint32_t)));
      uint32_t sentinel = 0;
      uint64_t total_units = 0;
      if (!tr.Get(&sentinel) || !tr.Get(&total_units) ||
          sentinel != kTrailerSentinel) {
        return Status::InvalidArgument("snapshot trailer malformed");
      }
      if (total_units != tree->num_units_) {
        return Status::InvalidArgument(
            "snapshot unit count mismatch (trailer says " +
            std::to_string(total_units) + ", pages held " +
            std::to_string(tree->num_units_) + ")");
      }
    }
    // Recompute subtree aggregates bottom-up (children have larger indices
    // than their parent by construction order).
    for (auto i = static_cast<int64_t>(node_count) - 1; i >= 0; --i) {
      TQNode& n = tree->MutableNode(static_cast<int32_t>(i));
      n.sub = n.local_ub;
      n.sub_agg = n.local_agg;
      if (!n.IsLeaf()) {
        for (int q = 0; q < 4; ++q) {
          const TQNode& c = tree->node(n.first_child + q);
          n.sub += c.sub;
          n.sub_agg.Add(c.sub_agg);
        }
      }
    }
    if (opt.variant == IndexVariant::kZOrder) tree->BuildAllZIndexes();
    return tree;
  }

 private:
  /// Reads and validates one page record into nodes [p·8, p·8 + in_page).
  static Status LoadPage(TQTree* tree, const TrajectorySet* users,
                         const TQTreeOptions& opt, size_t p,
                         uint64_t node_count, SnapshotSource* source) {
    // Record prefix: page index + node count; the body length depends on
    // the per-node entry counts, so the record is consumed incrementally
    // with a running CRC instead of buffered whole.
    std::string buf;
    TQ_RETURN_NOT_OK(ReadExact(source, &buf, 2 * sizeof(uint32_t), "page"));
    uint32_t crc = Crc32c(buf.data(), buf.size());
    PodReader pr(buf);
    uint32_t page_index = 0, in_page = 0;
    if (!pr.Get(&page_index) || !pr.Get(&in_page)) return Truncated("page");
    const size_t first = p * kNodePageSize;
    const auto expect = static_cast<uint32_t>(
        std::min(kNodePageSize, static_cast<size_t>(node_count) - first));
    if (page_index != p || in_page != expect) {
      return Status::InvalidArgument(
          "snapshot page record out of sequence (expected page " +
          std::to_string(p) + ")");
    }
    for (uint32_t i = 0; i < in_page; ++i) {
      const auto id = static_cast<int32_t>(first + i);
      TQNode& n = tree->MutableNode(id);
      TQ_RETURN_NOT_OK(ReadExact(
          source, &buf,
          4 * sizeof(double) + sizeof(int32_t) + sizeof(int16_t) +
              2 * sizeof(uint32_t),
          "node"));
      crc = Crc32cExtend(crc, buf.data(), buf.size());
      PodReader nr(buf);
      uint32_t entry_count = 0;
      if (!nr.GetRect(&n.rect) || !nr.Get(&n.first_child) ||
          !nr.Get(&n.depth) || !nr.Get(&n.split_failed_at) ||
          !nr.Get(&entry_count)) {
        return Truncated("node");
      }
      if (n.first_child >= 0 &&
          (static_cast<uint64_t>(n.first_child) + 4 > node_count ||
           n.first_child <= id)) {
        // Children always follow their parent in construction order; the
        // bottom-up aggregate pass depends on it.
        return Status::InvalidArgument(
            "snapshot child index out of range");
      }
      if (entry_count > 0) {
        TQ_RETURN_NOT_OK(ReadExact(source, &buf,
                                   entry_count * 2 * sizeof(uint32_t),
                                   "entries"));
        crc = Crc32cExtend(crc, buf.data(), buf.size());
        PodReader er(buf);
        n.entries.reserve(entry_count);
        for (uint32_t e = 0; e < entry_count; ++e) {
          uint32_t traj_id = 0, seg_index = 0;
          if (!er.Get(&traj_id) || !er.Get(&seg_index)) {
            return Truncated("entries");
          }
          if (traj_id >= users->size()) {
            return Status::InvalidArgument(
                "snapshot entry trajectory id " + std::to_string(traj_id) +
                " out of range");
          }
          // Rebuild geometry + bounds from the live user set.
          if (seg_index == kWholeUnit) {
            n.entries.push_back(MakeWholeEntry(*users, traj_id, opt.model));
          } else {
            if (seg_index + 1 >= users->NumPoints(traj_id)) {
              return Status::InvalidArgument(
                  "snapshot segment index " + std::to_string(seg_index) +
                  " out of range");
            }
            n.entries.push_back(
                MakeSegmentEntry(*users, traj_id, seg_index, opt.model));
          }
          tree->num_units_++;
        }
      }
      for (const TrajEntry& e : n.entries) {
        n.local_ub += e.ub;
        n.local_agg.Add(e.agg);
      }
      n.zindex_dirty = true;
    }
    std::string stored;
    TQ_RETURN_NOT_OK(ReadExact(source, &stored, sizeof(uint32_t), "page crc"));
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, stored.data(), sizeof(uint32_t));
    if (stored_crc != crc) {
      return Status::InvalidArgument("snapshot page " + std::to_string(p) +
                                     " CRC mismatch");
    }
    return Status::OK();
  }
};

Status WriteTQTreeSnapshot(const TQTree& tree, SnapshotSink* sink) {
  TQ_CHECK(sink != nullptr);
  return TQTreeSerializer::Write(tree, sink);
}

Result<std::unique_ptr<TQTree>> ReadTQTreeSnapshot(
    SnapshotSource* source, const TrajectorySet* users) {
  TQ_CHECK(source != nullptr);
  return TQTreeSerializer::Read(source, users);
}

Status SaveTQTree(const std::string& path, const TQTree& tree) {
  auto sink = FileSnapshotSink::Open(path);
  TQ_RETURN_NOT_OK(sink.status());
  TQ_RETURN_NOT_OK(WriteTQTreeSnapshot(tree, sink->get()));
  return (*sink)->Close();
}

Result<std::unique_ptr<TQTree>> LoadTQTree(const std::string& path,
                                           const TrajectorySet* users) {
  auto source = FileSnapshotSource::Open(path);
  TQ_RETURN_NOT_OK(source.status());
  return ReadTQTreeSnapshot(source->get(), users);
}

}  // namespace tq
