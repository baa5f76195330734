#include "wren/trace_binary.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace vw::wren {

namespace {

// Explicit little-endian byte packing: portable across host endianness and
// free of aliasing traps (the compiler folds these into single moves on LE
// targets).
void put_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}
void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("vw.trace.v1 parse error: " + what);
}

}  // namespace

std::array<unsigned char, kTraceRecordSize> encode_record(const PacketRecord& r) {
  std::array<unsigned char, kTraceRecordSize> buf{};
  unsigned char* p = buf.data();
  put_u64(p + 0, static_cast<std::uint64_t>(r.timestamp));
  put_u64(p + 8, r.seq);
  put_u64(p + 16, r.ack);
  put_u32(p + 24, r.flow.src);
  put_u32(p + 28, r.flow.dst);
  put_u32(p + 32, r.payload_bytes);
  put_u32(p + 36, r.wire_bytes);
  put_u16(p + 40, r.flow.src_port);
  put_u16(p + 42, r.flow.dst_port);
  p[44] = r.direction == net::TapDirection::kOutgoing ? 0 : 1;
  p[45] = static_cast<unsigned char>((r.is_ack ? 1 : 0) | (r.syn ? 2 : 0));
  // p[46..47] reserved, already zero.
  return buf;
}

PacketRecord decode_record(const unsigned char* p) {
  PacketRecord r;
  r.timestamp = static_cast<SimTime>(get_u64(p + 0));
  r.seq = get_u64(p + 8);
  r.ack = get_u64(p + 16);
  r.flow.src = get_u32(p + 24);
  r.flow.dst = get_u32(p + 28);
  r.payload_bytes = get_u32(p + 32);
  r.wire_bytes = get_u32(p + 36);
  r.flow.src_port = get_u16(p + 40);
  r.flow.dst_port = get_u16(p + 42);
  r.flow.proto = net::Protocol::kTcp;  // only TCP is ever captured
  r.direction = p[44] == 0 ? net::TapDirection::kOutgoing : net::TapDirection::kIncoming;
  r.is_ack = (p[45] & 1) != 0;
  r.syn = (p[45] & 2) != 0;
  return r;
}

std::array<unsigned char, kTraceHeaderSize> encode_header(const TraceFileHeader& h) {
  std::array<unsigned char, kTraceHeaderSize> buf{};
  unsigned char* p = buf.data();
  put_u64(p + 0, kTraceMagic);
  put_u32(p + 8, kTraceVersion);
  put_u32(p + 12, static_cast<std::uint32_t>(kTraceRecordSize));
  put_u32(p + 16, h.host);
  put_u32(p + 20, h.shard);
  put_u64(p + 24, h.record_count);
  put_u64(p + 32, h.dropped);
  // p[40..63] reserved, already zero.
  return buf;
}

TraceFileHeader decode_header(const unsigned char* p) {
  if (get_u64(p + 0) != kTraceMagic) corrupt("bad magic (not a vw.trace.v1 file)");
  const std::uint32_t version = get_u32(p + 8);
  if (version != kTraceVersion) {
    corrupt("unsupported version " + std::to_string(version) + " (this reader handles " +
            std::to_string(kTraceVersion) + ")");
  }
  const std::uint32_t record_size = get_u32(p + 12);
  if (record_size != kTraceRecordSize) {
    corrupt("record size " + std::to_string(record_size) + ", expected " +
            std::to_string(kTraceRecordSize));
  }
  TraceFileHeader h;
  h.host = get_u32(p + 16);
  h.shard = get_u32(p + 20);
  h.record_count = get_u64(p + 24);
  h.dropped = get_u64(p + 32);
  return h;
}

void write_trace_binary(std::ostream& out, const TraceFileHeader& header,
                        const std::vector<PacketRecord>& records) {
  TraceFileHeader h = header;
  h.record_count = records.size();
  const auto hdr = encode_header(h);
  out.write(reinterpret_cast<const char*>(hdr.data()), static_cast<std::streamsize>(hdr.size()));
  for (const PacketRecord& r : records) {
    const auto buf = encode_record(r);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  if (!out) throw std::runtime_error("vw.trace.v1 write error (stream failed)");
}

BinaryTrace read_trace_binary(std::istream& in) {
  std::array<unsigned char, kTraceHeaderSize> hdr;
  in.read(reinterpret_cast<char*>(hdr.data()), static_cast<std::streamsize>(hdr.size()));
  if (static_cast<std::size_t>(in.gcount()) != kTraceHeaderSize) {
    corrupt("truncated header (" + std::to_string(in.gcount()) + " of " +
            std::to_string(kTraceHeaderSize) + " bytes)");
  }

  BinaryTrace trace;
  trace.header = decode_header(hdr.data());
  // No reserve(record_count): the header is untrusted until the body has
  // been counted, and a corrupt count must surface as a count mismatch,
  // not as a huge allocation.

  std::array<unsigned char, kTraceRecordSize> buf;
  std::uint64_t n = 0;
  for (;;) {
    in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    if (got != kTraceRecordSize) {
      corrupt("truncated record " + std::to_string(n) + " (" + std::to_string(got) + " of " +
              std::to_string(kTraceRecordSize) + " bytes)");
    }
    trace.records.push_back(decode_record(buf.data()));
    ++n;
  }
  if (n != trace.header.record_count) {
    corrupt("record count mismatch: header says " + std::to_string(trace.header.record_count) +
            ", file holds " + std::to_string(n));
  }
  return trace;
}

BinaryTrace read_trace_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace_binary(in);
}

}  // namespace vw::wren
