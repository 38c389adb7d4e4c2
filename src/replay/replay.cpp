#include "qoc/replay/replay.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/obs/obs.hpp"

namespace qoc::replay {
namespace {

// ---------------------------------------------------------------------------
// Binary primitives. Explicit little-endian byte order, so a log written
// on any host parses on any other; doubles travel as IEEE bit patterns.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'Q', 'O', 'C', 'T', 'R', 'A', 'C', 'E'};

enum RecordType : std::uint8_t {
  kEndRecord = 0,  // trailer: payload is the CRC32 of everything before it
  kCircuitRecord = 1,
  kObservableRecord = 2,
  kJobRecord = 3,
};

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_doubles(std::vector<std::uint8_t>& out,
                 std::span<const double> values) {
  put_u32(out, static_cast<std::uint32_t>(values.size()));
  for (const double d : values) put_f64(out, d);
}

/// Bounds-checked cursor over a byte span: every malformed length field
/// or premature end of input surfaces as TraceError, never as an
/// out-of-bounds read or a multi-gigabyte allocation.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n)
      throw TraceError(std::string("qoc trace: truncated log (") + what + ")");
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return bytes[pos++];
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 8;
    return v;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

  std::string str(std::size_t n, const char* what) {
    need(n, what);
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), n);
    pos += n;
    return s;
  }

  std::vector<double> doubles(const char* what) {
    const std::uint32_t n = u32(what);
    need(std::size_t{n} * 8, what);
    std::vector<double> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(f64(what));
    return out;
  }
};

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------------

constexpr std::uint8_t kMaxGateKind =
    static_cast<std::uint8_t>(circuit::GateKind::Ccx);
constexpr std::uint8_t kMaxParamSource =
    static_cast<std::uint8_t>(circuit::ParamRef::Source::Input);
constexpr int kMaxQubits = 30;  // statevector memory bound; anything
                                // larger in a log is corruption

void encode_circuit(std::vector<std::uint8_t>& out, const TracedCircuit& tc) {
  put_u64(out, tc.id);
  put_u64(out, tc.structure_hash);
  put_i32(out, tc.circuit.num_qubits());
  put_i32(out, tc.circuit.num_trainable());
  put_i32(out, tc.circuit.num_inputs());
  put_u32(out, static_cast<std::uint32_t>(tc.circuit.num_ops()));
  for (const auto& op : tc.circuit.ops()) {
    put_u8(out, static_cast<std::uint8_t>(op.kind));
    put_u8(out, static_cast<std::uint8_t>(op.qubits.size()));
    for (const int q : op.qubits) put_i32(out, q);
    put_u8(out, static_cast<std::uint8_t>(op.param.source));
    put_i32(out, op.param.index);
    put_f64(out, op.param.value);
    put_f64(out, op.param.scale);
  }
}

TracedCircuit decode_circuit(Reader& r) {
  TracedCircuit tc;
  tc.id = r.u64("circuit id");
  tc.structure_hash = r.u64("circuit hash");
  const std::int32_t n_qubits = r.i32("circuit qubits");
  const std::int32_t n_trainable = r.i32("circuit trainable count");
  const std::int32_t n_inputs = r.i32("circuit input count");
  if (n_qubits < 1 || n_qubits > kMaxQubits)
    throw TraceError("qoc trace: circuit qubit count out of range");
  if (n_trainable < 0 || n_inputs < 0)
    throw TraceError("qoc trace: negative circuit parameter count");
  circuit::Circuit c(n_qubits);
  const std::uint32_t n_ops = r.u32("circuit op count");
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    const std::uint8_t kind = r.u8("op kind");
    if (kind > kMaxGateKind) throw TraceError("qoc trace: unknown gate kind");
    const std::uint8_t nq = r.u8("op qubit count");
    if (nq < 1 || nq > 3)
      throw TraceError("qoc trace: op qubit count out of range");
    std::vector<int> qubits;
    for (std::uint8_t q = 0; q < nq; ++q) {
      const std::int32_t idx = r.i32("op qubit");
      if (idx < 0 || idx >= n_qubits)
        throw TraceError("qoc trace: op qubit index out of range");
      qubits.push_back(idx);
    }
    circuit::ParamRef param;
    const std::uint8_t source = r.u8("param source");
    if (source > kMaxParamSource)
      throw TraceError("qoc trace: unknown param source");
    param.source = static_cast<circuit::ParamRef::Source>(source);
    param.index = r.i32("param index");
    param.value = r.f64("param value");
    param.scale = r.f64("param scale");
    try {
      c.add(static_cast<circuit::GateKind>(kind), std::move(qubits), param);
    } catch (const std::exception& e) {
      throw TraceError(std::string("qoc trace: invalid op: ") + e.what());
    }
  }
  // Trainable slots may legitimately exceed the highest referenced index
  // (Circuit::new_trainable allocates unused slots); pad them back.
  // Input counts are always derived from the ops, so a mismatch there
  // is corruption.
  if (c.num_trainable() > n_trainable || c.num_inputs() != n_inputs)
    throw TraceError("qoc trace: circuit parameter counts inconsistent");
  while (c.num_trainable() < n_trainable) c.new_trainable();
  tc.circuit = std::move(c);
  return tc;
}

void encode_observable(std::vector<std::uint8_t>& out,
                       const TracedObservable& to) {
  put_u64(out, to.id);
  put_i32(out, to.n_qubits);
  put_u32(out, static_cast<std::uint32_t>(to.terms.size()));
  for (const auto& t : to.terms) {
    put_u32(out, static_cast<std::uint32_t>(t.paulis.size()));
    for (const char ch : t.paulis)
      put_u8(out, static_cast<std::uint8_t>(ch));
    put_f64(out, t.coeff);
  }
}

TracedObservable decode_observable(Reader& r) {
  TracedObservable to;
  to.id = r.u64("observable id");
  to.n_qubits = r.i32("observable qubits");
  if (to.n_qubits < 1 || to.n_qubits > 63)
    throw TraceError("qoc trace: observable qubit count out of range");
  const std::uint32_t n_terms = r.u32("observable term count");
  for (std::uint32_t i = 0; i < n_terms; ++i) {
    exec::ObservableTerm term;
    const std::uint32_t len = r.u32("term length");
    term.paulis = r.str(len, "term paulis");
    for (const char ch : term.paulis)
      if (ch != 'I' && ch != 'X' && ch != 'Y' && ch != 'Z')
        throw TraceError("qoc trace: invalid pauli character");
    term.coeff = r.f64("term coeff");
    to.terms.push_back(std::move(term));
  }
  return to;
}

enum JobFlags : std::uint8_t {
  kJobIsExpect = 1,
  kJobHasResult = 2,
};

/// An expect job's energy: the one value of its result. The format
/// stores it as a bare double, so a result of any other size cannot be
/// written.
double energy_of(const TracedJob& j) {
  if (j.result.size() != 1)
    throw TraceError("qoc trace: expect job result is not exactly one value");
  return j.result[0];
}

void encode_job(std::vector<std::uint8_t>& out, const TracedJob& j) {
  put_u32(out, j.client);
  put_u64(out, j.seq);
  put_u64(out, j.circuit_id);
  put_u64(out, j.observable_id);
  put_u64(out, j.stream);
  put_i64(out, j.since_start.count());
  put_u8(out, static_cast<std::uint8_t>((j.is_expect ? kJobIsExpect : 0) |
                                        (j.has_result ? kJobHasResult : 0)));
  put_doubles(out, j.theta);
  put_doubles(out, j.input);
  if (j.has_result) {
    if (j.is_expect)
      put_f64(out, energy_of(j));
    else
      put_doubles(out, j.result);
  }
}

TracedJob decode_job(Reader& r) {
  TracedJob j;
  j.client = r.u32("job client");
  j.seq = r.u64("job seq");
  j.circuit_id = r.u64("job circuit id");
  j.observable_id = r.u64("job observable id");
  j.stream = r.u64("job stream");
  j.since_start = std::chrono::nanoseconds(r.i64("job timestamp"));
  const std::uint8_t flags = r.u8("job flags");
  if (flags > (kJobIsExpect | kJobHasResult))
    throw TraceError("qoc trace: unknown job flags");
  j.is_expect = (flags & kJobIsExpect) != 0;
  j.has_result = (flags & kJobHasResult) != 0;
  j.theta = r.doubles("job theta");
  j.input = r.doubles("job input");
  if (j.has_result) {
    if (j.is_expect)
      j.result = {r.f64("job expect result")};
    else
      j.result = r.doubles("job run result");
  }
  return j;
}

void append_record(std::vector<std::uint8_t>& out, std::uint8_t type,
                   const std::vector<std::uint8_t>& payload) {
  put_u8(out, type);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

bool doubles_equal_bitwise(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Binary log
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> write_binary(const TraceLog& log) {
  std::vector<std::uint8_t> out;
  for (const char ch : kMagic) put_u8(out, static_cast<std::uint8_t>(ch));
  put_u32(out, kTraceVersion);
  put_u32(out, static_cast<std::uint32_t>(log.scenario.size()));
  for (const char ch : log.scenario)
    put_u8(out, static_cast<std::uint8_t>(ch));
  std::vector<std::uint8_t> payload;
  for (const auto& tc : log.circuits) {
    payload.clear();
    encode_circuit(payload, tc);
    append_record(out, kCircuitRecord, payload);
  }
  for (const auto& to : log.observables) {
    payload.clear();
    encode_observable(payload, to);
    append_record(out, kObservableRecord, payload);
  }
  for (const auto& j : log.jobs) {
    payload.clear();
    encode_job(payload, j);
    append_record(out, kJobRecord, payload);
  }
  // Trailer: the CRC covers every byte before its own 4-byte value
  // (header, records, and the trailer's type + length fields).
  put_u8(out, kEndRecord);
  put_u32(out, 4);
  put_u32(out, crc32(out));
  return out;
}

TraceLog read_binary(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  const std::string magic = r.str(sizeof(kMagic), "magic");
  if (magic != std::string(kMagic, sizeof(kMagic)))
    throw TraceError("qoc trace: bad magic (not a qoc trace log)");
  const std::uint32_t version = r.u32("version");
  if (version != kTraceVersion)
    throw TraceError("qoc trace: unsupported version " +
                     std::to_string(version) + " (expected " +
                     std::to_string(kTraceVersion) + ")");
  TraceLog log;
  const std::uint32_t scenario_len = r.u32("scenario length");
  log.scenario = r.str(scenario_len, "scenario");

  for (;;) {
    const std::uint8_t type = r.u8("record type");
    const std::uint32_t len = r.u32("record length");
    r.need(len, "record payload");
    if (type == kEndRecord) {
      if (len != 4) throw TraceError("qoc trace: malformed trailer");
      const std::size_t crc_pos = r.pos;
      const std::uint32_t stored = r.u32("trailer crc");
      if (r.remaining() != 0)
        throw TraceError("qoc trace: trailing data after trailer");
      if (crc32(bytes.subspan(0, crc_pos)) != stored)
        throw TraceError("qoc trace: CRC mismatch (corrupt log)");
      return log;
    }
    Reader payload{bytes.subspan(r.pos, len)};
    r.pos += len;
    switch (type) {
      case kCircuitRecord:
        log.circuits.push_back(decode_circuit(payload));
        break;
      case kObservableRecord:
        log.observables.push_back(decode_observable(payload));
        break;
      case kJobRecord:
        log.jobs.push_back(decode_job(payload));
        break;
      default:
        throw TraceError("qoc trace: unknown record type " +
                         std::to_string(type));
    }
    if (payload.remaining() != 0)
      throw TraceError("qoc trace: record length/payload mismatch");
  }
}

void save(const TraceLog& log, const std::string& path) {
  const auto bytes = write_binary(log);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("qoc trace: cannot open '" + path + "' for write");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw TraceError("qoc trace: short write to '" + path + "'");
}

TraceLog load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("qoc trace: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return read_binary(bytes);
}

// ---------------------------------------------------------------------------
// Text form (write-only). One record per line, whitespace-separated
// tokens; every double is a 16-digit hex bit pattern so nothing is rounded.
// ---------------------------------------------------------------------------

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fhex(double d) { return hex64(std::bit_cast<std::uint64_t>(d)); }

void emit_doubles(std::string& out, std::span<const double> values) {
  out += ' ';
  out += std::to_string(values.size());
  for (const double d : values) {
    out += ' ';
    out += fhex(d);
  }
}

/// Percent-escape so the scenario string is always one token.
std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '%' || ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

std::string write_text(const TraceLog& log) {
  std::string out = "qoctrace " + std::to_string(kTraceVersion) + "\n";
  out += "scenario " + (log.scenario.empty() ? "-" : escape(log.scenario)) +
         "\n";
  for (const auto& tc : log.circuits) {
    out += "circuit " + std::to_string(tc.id) + ' ' +
           hex64(tc.structure_hash) + ' ' +
           std::to_string(tc.circuit.num_qubits()) + ' ' +
           std::to_string(tc.circuit.num_trainable()) + ' ' +
           std::to_string(tc.circuit.num_inputs()) + ' ' +
           std::to_string(tc.circuit.num_ops()) + "\n";
    for (const auto& op : tc.circuit.ops()) {
      out += "op " + std::to_string(static_cast<int>(op.kind)) + ' ' +
             std::to_string(op.qubits.size());
      for (const int q : op.qubits) out += ' ' + std::to_string(q);
      out += ' ' + std::to_string(static_cast<int>(op.param.source)) + ' ' +
             std::to_string(op.param.index) + ' ' + fhex(op.param.value) +
             ' ' + fhex(op.param.scale) + "\n";
    }
  }
  for (const auto& to : log.observables) {
    out += "observable " + std::to_string(to.id) + ' ' +
           std::to_string(to.n_qubits) + ' ' + std::to_string(to.terms.size()) +
           "\n";
    for (const auto& t : to.terms)
      out += "term " + (t.paulis.empty() ? "-" : t.paulis) + ' ' +
             fhex(t.coeff) + "\n";
  }
  for (const auto& j : log.jobs) {
    out += "job " + std::to_string(j.client) + ' ' + std::to_string(j.seq) +
           ' ' + std::to_string(j.circuit_id) + ' ' +
           std::to_string(j.observable_id) + ' ' + hex64(j.stream) + ' ' +
           std::to_string(j.since_start.count()) + ' ' +
           (j.is_expect ? "1" : "0") + ' ' + (j.has_result ? "1" : "0");
    emit_doubles(out, j.theta);
    emit_doubles(out, j.input);
    if (j.has_result) {
      if (j.is_expect)
        out += ' ' + fhex(energy_of(j));
      else
        emit_doubles(out, j.result);
    }
    out += "\n";
  }
  return out;
}

bool logs_equal(const TraceLog& a, const TraceLog& b) {
  if (a.scenario != b.scenario || a.circuits.size() != b.circuits.size() ||
      a.observables.size() != b.observables.size() ||
      a.jobs.size() != b.jobs.size())
    return false;
  for (std::size_t i = 0; i < a.circuits.size(); ++i) {
    const auto& x = a.circuits[i];
    const auto& y = b.circuits[i];
    if (x.id != y.id || x.structure_hash != y.structure_hash ||
        x.circuit.num_trainable() != y.circuit.num_trainable() ||
        x.circuit.num_inputs() != y.circuit.num_inputs() ||
        !exec::structure_equal(x.circuit, y.circuit))
      return false;
  }
  for (std::size_t i = 0; i < a.observables.size(); ++i) {
    const auto& x = a.observables[i];
    const auto& y = b.observables[i];
    if (x.id != y.id || x.n_qubits != y.n_qubits ||
        x.terms.size() != y.terms.size())
      return false;
    for (std::size_t t = 0; t < x.terms.size(); ++t)
      if (x.terms[t].paulis != y.terms[t].paulis ||
          std::bit_cast<std::uint64_t>(x.terms[t].coeff) !=
              std::bit_cast<std::uint64_t>(y.terms[t].coeff))
        return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.client != y.client || x.seq != y.seq ||
        x.circuit_id != y.circuit_id || x.observable_id != y.observable_id ||
        x.stream != y.stream || x.since_start != y.since_start ||
        x.is_expect != y.is_expect || x.has_result != y.has_result ||
        !doubles_equal_bitwise(x.theta, y.theta) ||
        !doubles_equal_bitwise(x.input, y.input) ||
        !doubles_equal_bitwise(x.result, y.result))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

void Recorder::on_circuit(std::uint64_t circuit_id,
                          std::uint64_t structure_hash,
                          const circuit::Circuit& circuit) {
  const common::MutexLock lock(mutex_);
  log_.circuits.push_back(TracedCircuit{circuit_id, structure_hash, circuit});
}

void Recorder::on_observable(std::uint64_t observable_id,
                             const exec::CompiledObservable& observable) {
  const common::MutexLock lock(mutex_);
  log_.observables.push_back(TracedObservable{
      observable_id, observable.num_qubits(), observable.terms()});
}

void Recorder::on_submit(std::uint32_t client, std::uint64_t seq,
                         std::uint64_t circuit_id, std::uint64_t observable_id,
                         std::span<const double> theta,
                         std::span<const double> input,
                         std::chrono::nanoseconds since_session_start,
                         std::uint64_t stream) {
  TracedJob job;
  job.client = client;
  job.seq = seq;
  job.circuit_id = circuit_id;
  job.observable_id = observable_id;
  job.stream = stream;
  job.since_start = since_session_start;
  job.is_expect = observable_id != 0;
  job.theta.assign(theta.begin(), theta.end());
  job.input.assign(input.begin(), input.end());
  const common::MutexLock lock(mutex_);
  job_of_stream_[stream] = log_.jobs.size();
  log_.jobs.push_back(std::move(job));
}

void Recorder::on_result(std::uint64_t stream,
                         std::span<const double> result) {
  const common::MutexLock lock(mutex_);
  const auto it = job_of_stream_.find(stream);
  if (it == job_of_stream_.end()) return;  // never submitted through us
  TracedJob& job = log_.jobs[it->second];
  job.result.assign(result.begin(), result.end());
  job.has_result = true;
}

TraceLog Recorder::snapshot() const {
  const common::MutexLock lock(mutex_);
  return log_;
}

// ---------------------------------------------------------------------------
// Replayer
// ---------------------------------------------------------------------------

ReplayReport replay(const TraceLog& log, backend::Backend& backend,
                    const ReplayOptions& options) {
  // Validate the whole log before submitting anything: a half-replayed
  // stream against a broken log would poison the session under test.
  for (const auto& tc : log.circuits)
    if (exec::structure_hash(tc.circuit) != tc.structure_hash)
      throw TraceError(
          "qoc trace: structure hash mismatch for circuit id " +
          std::to_string(tc.id) + " (log drifted from its serialization)");
  serve::ServeOptions sopt = options.serve;
  sopt.trace_sink = nullptr;
  serve::ServeSession session(serve::BackendPool(backend, options.replicas),
                              sopt);
  std::unordered_map<std::uint64_t, serve::CircuitHandle> circuits;
  std::unordered_map<std::uint64_t, serve::ObservableHandle> observables;
  for (const auto& tc : log.circuits) {
    if (!circuits.emplace(tc.id, session.register_circuit(tc.circuit)).second)
      throw TraceError("qoc trace: duplicate circuit id " +
                       std::to_string(tc.id));
  }
  for (const auto& to : log.observables) {
    exec::CompiledObservable obs = [&] {
      try {
        return exec::CompiledObservable::compile(to.n_qubits, to.terms);
      } catch (const std::exception& e) {
        throw TraceError(std::string("qoc trace: invalid observable id ") +
                         std::to_string(to.id) + ": " + e.what());
      }
    }();
    if (!observables.emplace(to.id, session.register_observable(std::move(obs)))
             .second)
      throw TraceError("qoc trace: duplicate observable id " +
                       std::to_string(to.id));
  }
  for (const auto& j : log.jobs) {
    if (j.stream != serve::ServeSession::client_stream(j.client, j.seq))
      throw TraceError("qoc trace: job stream does not match its "
                       "(client, seq) identity");
    if (j.is_expect != (j.observable_id != 0))
      throw TraceError("qoc trace: job expect flag / observable id mismatch");
    const auto circuit = circuits.find(j.circuit_id);
    if (circuit == circuits.end())
      throw TraceError("qoc trace: job references unknown circuit id " +
                       std::to_string(j.circuit_id));
    const exec::CompiledCircuit& plan = circuit->second.plan();
    // The checks serve would make at submission, made here for every job
    // first: a log that fails one must not half-run.
    const exec::Evaluation eval{j.theta, j.input};
    try {
      backend::require_valid_bindings(plan, std::span(&eval, 1), "qoc trace");
    } catch (const std::invalid_argument& e) {
      throw TraceError(e.what());
    }
    if (!j.is_expect) continue;
    const auto observable = observables.find(j.observable_id);
    if (observable == observables.end())
      throw TraceError("qoc trace: job references unknown observable id " +
                       std::to_string(j.observable_id));
    if (observable->second.observable().num_qubits() != plan.num_qubits())
      throw TraceError("qoc trace: job observable id " +
                       std::to_string(j.observable_id) +
                       " does not match its circuit's qubit count");
  }

  const auto start = obs::now();
  std::vector<std::future<std::vector<double>>> run_futures(log.jobs.size());
  std::vector<std::future<double>> expect_futures(log.jobs.size());
  for (std::size_t i = 0; i < log.jobs.size(); ++i) {
    const auto& j = log.jobs[i];
    if (options.paced) std::this_thread::sleep_until(start + j.since_start);
    if (j.is_expect)
      expect_futures[i] = session.submit_expect_pinned(
          j.client, j.seq, circuits.at(j.circuit_id),
          observables.at(j.observable_id), j.theta, j.input);
    else
      run_futures[i] = session.submit_pinned(
          j.client, j.seq, circuits.at(j.circuit_id), j.theta, j.input);
  }

  ReplayReport report;
  report.jobs = log.jobs.size();
  for (std::size_t i = 0; i < log.jobs.size(); ++i) {
    const auto& j = log.jobs[i];
    Divergence d;
    d.client = j.client;
    d.seq = j.seq;
    d.is_expect = j.is_expect;
    bool failed = false;
    std::vector<double> actual;
    try {
      if (j.is_expect)
        actual.push_back(expect_futures[i].get());
      else
        actual = run_futures[i].get();
    } catch (const std::exception& e) {
      failed = true;
      d.error = e.what();
    }
    if (!j.has_result) {
      // Recorded without a value (the original backend failed it):
      // nothing to compare against, whatever the replay produced.
      ++report.skipped;
      continue;
    }
    const std::vector<double>& expected = j.result;
    if (!failed && doubles_equal_bitwise(expected, actual)) {
      ++report.matched;
      QOC_METRIC_COUNTER_ADD("qoc_replay_matched_total", 1);
    } else {
      ++report.diverged;
      QOC_METRIC_COUNTER_ADD("qoc_replay_divergences_total", 1);
      d.expected = expected;
      d.actual = std::move(actual);
      report.divergences.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace qoc::replay
