#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "net/network.hpp"
#include "obs/scope.hpp"
#include "wren/trace_binary.hpp"

// The capture datapath: a host tap that persists every TCP header record to
// a vw.trace.v1 shard file.
//
//   tap callback → PacketRecord → encode → buffered std::ofstream append
//                                          → <dir>/trace_host<id>.vwtrace
//
// The append runs on the simulation thread. The simulator runs in virtual
// time, so a buffered write costs it no simulated time, and the shard is a
// pure function of the run: no record is ever dropped, and the same seed
// writes the same bytes.
//
// finish() (or the destructor) removes the tap, flushes, and patches the
// header's record count — a shard is a valid vw.trace.v1 file only after
// finish(). The header's drop count is always 0.

namespace vw::wren {

class TraceWriter {
 public:
  /// Taps `host` and streams its TCP header records to `path`; `shard` is
  /// the shard / NIC tag recorded in the file header. The file is created
  /// immediately; throws std::runtime_error when it cannot be.
  TraceWriter(net::Network& network, net::NodeId host, std::string path,
              std::uint32_t shard = 0);
  /// Finishes the shard; a write error is reported only by finish().
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Attach telemetry (wren.trace.writer.captured/written/bytes counters).
  /// Instruments are shared across writers — per-shard numbers live in the
  /// shard headers.
  void set_obs(const obs::Scope& scope);

  /// Stop capturing, patch the shard header with the final record count,
  /// and close the file. Throws std::runtime_error naming the path when any
  /// write failed. Idempotent: only the first call can throw.
  void finish();

  net::NodeId host() const { return host_; }
  const std::string& path() const { return path_; }
  std::uint64_t records_captured() const { return captured_; }
  /// Records / record bytes the stream accepted; they stop growing at the
  /// first write error.
  std::uint64_t records_written() const { return written_; }
  std::uint64_t bytes_written() const { return bytes_; }
  bool finished() const { return finished_; }

 private:
  void on_tap(const net::TapEvent& ev);
  /// finish() without the error report: the stream state keeps the error.
  void finalize();
  void write_header();  ///< at the current position, with the current count

  net::Network& network_;
  net::NodeId host_;
  std::string path_;
  std::uint32_t shard_;
  std::ofstream out_;
  net::TapId tap_id_ = 0;
  bool finished_ = false;

  std::uint64_t captured_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t bytes_ = 0;

  obs::Counter* c_captured_ = nullptr;
  obs::Counter* c_written_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
};

}  // namespace vw::wren
