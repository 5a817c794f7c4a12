#ifndef SOPS_SYSTEM_SNAPSHOT_HPP
#define SOPS_SYSTEM_SNAPSHOT_HPP

/// \file snapshot.hpp
/// Versioned, checksummed binary snapshots of run state, written atomically.
///
/// A snapshot file is a framed payload:
///
///   bytes 0..7    magic "SOPSSNAP"
///   bytes 8..11   format version (u32 little-endian, currently 4)
///   bytes 12..19  payload length in bytes (u64 LE)
///   bytes 20..27  FNV-1a-64 checksum of the payload (u64 LE)
///   bytes 28..    payload
///
/// The payload is a flat little-endian byte stream produced by
/// SnapshotWriter and consumed by SnapshotReader: typed primitives only
/// (u8/u32/u64/i64/f64, length-prefixed strings and byte blobs), every
/// read bounds-checked, so a truncated or bit-flipped file fails loudly at
/// the frame checksum or at the first short read — never by silently
/// misinterpreting state.
///
/// Durability discipline (writeSnapshotFile):
///   1. write to `<path>.tmp`, fflush + fsync, close;
///   2. rotate an existing `<path>` to `<path>.prev` (rename);
///   3. rename `<path>.tmp` → `<path>`;
///   4. fsync the containing directory.
/// A crash at any point leaves either the previous durable snapshot at
/// `<path>` or at `<path>.prev`; loadResumableSnapshot() tries `<path>`
/// first and falls back to `<path>.prev` when the primary is torn,
/// truncated, or missing.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rng/random.hpp"
#include "system/particle_system.hpp"

namespace sops::system {

/// FNV-1a 64-bit over a byte range — the frame checksum.
[[nodiscard]] std::uint64_t snapshotChecksum(
    std::span<const std::uint8_t> bytes) noexcept;

/// Current frame format version.  v5: the sharded chain runner no longer
/// appends a partner-id plane record (separation keeps its colors in its
/// shadow planes), so sharded frames before v5 are rejected by name
/// (kMinShardedSnapshotVersion).  v4: the sharded runners' schedule state
/// is the sweep count, the epoch target and the epoch index — their
/// per-particle clock and coin streams are gone (each stripe draws its
/// events from a per-epoch stream).  v3: occupancy serializes a backend
/// tag (flat window / tiled directory, with the tiled grid's exact
/// allocated-tile set) — the tiled deferral predicates are functions of
/// that directory, so a re-derived one would change the trajectory.
/// Sequential-engine payloads of v2 (flat occupancy only), v3 and v4 are
/// still accepted: their byte layout is unchanged apart from v3's
/// occupancy tag, of which v2's flat record is a strict subset.  v1
/// payloads stored full (seed, state) Random pairs, so they must fail
/// loudly rather than be misread.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Oldest frame version readSnapshotFile still accepts.
inline constexpr std::uint32_t kMinSnapshotVersion = 2;

/// Oldest frame version the sharded runners resume from
/// (core::requireStripeEpochFrame).
inline constexpr std::uint32_t kMinShardedSnapshotVersion = 5;

/// Accumulates a snapshot payload as typed little-endian primitives.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Length-prefixed (u64) byte string.
  void str(std::string_view v);
  void bytes(std::span<const std::uint8_t> v);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept {
    return payload_;
  }

 private:
  std::vector<std::uint8_t> payload_;
};

/// Bounds-checked reader over a snapshot payload.  Every short read throws
/// ContractViolation naming the field kind; finish() requires the payload
/// to be fully consumed (trailing bytes are corruption, not padding).
/// The reader is a *view*: the payload bytes must outlive it — never
/// construct one from a temporary (e.g. directly from the return value of
/// loadResumableSnapshot).
class SnapshotReader {
 public:
  /// `version` is the frame version the payload was read from (see
  /// SnapshotData); consumers branch on it for fields newer versions
  /// appended.  Defaults to current for payloads built in-process.
  explicit SnapshotReader(std::span<const std::uint8_t> payload,
                          std::uint32_t version = kSnapshotVersion) noexcept
      : payload_(payload), version_(version) {}

  /// Frame version of the payload under this reader.
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  /// A u64 record count, rejected (naming `what`) unless that many
  /// `recordBytes`-byte records still fit in the payload — so a corrupt
  /// count fails here instead of sizing an allocation.
  [[nodiscard]] std::size_t count(std::size_t recordBytes, const char* what);
  /// An i64 lattice coordinate, rejected (naming `what`) outside int32.
  [[nodiscard]] std::int32_t coord(const char* what);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return payload_.size() - pos_;
  }
  /// Throws unless the payload is fully consumed.
  void finish() const;

 private:
  void need(std::size_t count, const char* what) const;

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = kSnapshotVersion;
};

/// A verified snapshot payload together with the frame version it was
/// framed as — construct the SnapshotReader with both so version-gated
/// fields resolve correctly.
struct SnapshotData {
  std::uint32_t version = kSnapshotVersion;
  std::vector<std::uint8_t> payload;
};

/// Writes `payload` to `path` with the frame header, atomically (see file
/// comment for the tmp/fsync/rotate/rename discipline).  Throws
/// ContractViolation on any I/O failure.  `version` stamps the frame
/// header and must be in [kMinSnapshotVersion, kSnapshotVersion] — the
/// non-default values exist for tests that craft older frames; the writer
/// does not down-convert the payload bytes.
void writeSnapshotFile(const std::string& path,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t version = kSnapshotVersion);

/// Reads and verifies one snapshot file: magic, version (any supported
/// one), length, checksum.  Throws ContractViolation (naming the path and
/// the failure) on a missing, torn, truncated, or corrupt file.
[[nodiscard]] SnapshotData readSnapshotFile(const std::string& path);

/// readSnapshotFile(path), falling back to `<path>.prev` when the primary
/// is unreadable or fails verification (the window between rotate and
/// rename, or a torn write).  Throws only when both fail, with both
/// errors in the message.
[[nodiscard]] SnapshotData loadResumableSnapshot(const std::string& path);

/// The exact occupancy-grid geometry a snapshot records for a
/// ParticleSystem or AmoebotSystem: a backend tag (1 flat window, 2
/// tiled) and the window rectangle or the sorted allocated-tile
/// coordinate list.  The sharded runners' trajectories depend on both
/// (see ParticleSystem::restoreWindowGeometry / restoreTiledGeometry).
/// The flat encoding is byte-identical to frame v2's.  Tag 0, the
/// retired hash-only occupancy regime, fails readGridGeometry with a
/// ContractViolation.
struct GridGeometry {
  bool tiled = false;
  std::int64_t originX = 0;  ///< flat only
  std::int64_t originY = 0;
  std::uint64_t width = 0;
  std::uint64_t height = 0;
  std::vector<std::uint64_t> tileKeys;  ///< tiled only
};
void writeGridGeometry(SnapshotWriter& w, const BitGrid& grid);
[[nodiscard]] GridGeometry readGridGeometry(SnapshotReader& r);

/// Serializes a ParticleSystem: positions plus its GridGeometry.
void writeParticleSystem(SnapshotWriter& w, const ParticleSystem& sys);
[[nodiscard]] ParticleSystem readParticleSystem(SnapshotReader& r);

/// Serializes an rng::Random exactly: seed plus the 256-bit engine state.
void writeRandom(SnapshotWriter& w, const rng::Random& random);
[[nodiscard]] rng::Random readRandom(SnapshotReader& r);

}  // namespace sops::system

#endif  // SOPS_SYSTEM_SNAPSHOT_HPP
