// serve_mixed: trap_serve on a Unix socket under closed-loop load. One
// client (this process) drives one connection, sending its next request
// only after the reply to its previous one. One operation is one request:
// ~40% whatif_batch, ~30% advise, ~30% assess, over a small repeating set
// of workloads (a warm, hit-dominated cost cache), some shipped as
// explicit workload JSON. Every kPublishEvery-th request is a
// snapshot_stats publish or reset, so the epoch every request pins -- and
// hence every reply -- is a function of the seed alone. With one
// connection the server serves one request at a time, so the CPU time the
// client and the server spend between a send and its reply is that
// request's: the operation time. (Three connections made the server queue
// requests behind each other, and their time could not be split.)
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "advisor/remote.h"
#include "catalog/datasets.h"
#include "common/frame.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/rpc.h"
#include "common/subprocess.h"
#include "serve/service.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using trap::common::HashCombine;
using trap::common::JsonValue;
using trap::common::Status;
using trap::common::StatusOr;
namespace rpc = trap::common::rpc;

constexpr int64_t kPublishEvery = 200;
constexpr int64_t kDigestRequests = 600;
constexpr int64_t kPostPublishRequests = 6;
constexpr int kSetupRepeats = 5;
constexpr int kExplicitWorkloads = 16;
constexpr int kWorkloadSeeds = 16;
constexpr int kWorkloadSize = 5;
constexpr double kReplyTimeoutS = 60.0;
const char* const kSocketPath = "perfbench-serve.sock";
// The server's own workload seed, which fixes the 12-query generator pool
// behind server-side workloads, and the seed of the shipped workloads. The
// run's seed varies the request stream (methods, advisors, configurations,
// which workload each request names); the workload set itself is fixed, so
// one seed's set of unusually heavy queries cannot set a run's figures.
const char* const kServerSeed = "1";
constexpr uint64_t kShippedWorkloadSeed = 0xe1;
const char* const kAdvisors[] = {"Extend", "DB2Advis", "AutoAdmin", "Drop"};
const char* const kMethods[] = {"whatif_batch", "advise", "assess",
                                "snapshot_stats"};

struct Request {
  int64_t index = 0;
  bool publish = false;
  rpc::Request rpc;
  std::string frame;
  trap::advisor::TuningConstraint constraint;  // advise: what must hold
};

// The seeded request stream: request i is a pure function of (seed, i).
class RequestStream {
 public:
  RequestStream(const trap::catalog::Schema& schema, uint64_t seed)
      : schema_(&schema), seed_(seed) {
    const trap::sql::Vocabulary vocab(schema, 8);
    trap::workload::GeneratorOptions gopt;
    gopt.max_tables = 3;
    gopt.max_filters = 3;
    trap::workload::QueryGenerator gen(vocab, gopt, kShippedWorkloadSeed);
    for (int k = 0; k < kExplicitWorkloads; ++k) {
      trap::workload::Workload w;
      for (int q = 0; q < kWorkloadSize; ++q) {
        w.queries.push_back(trap::workload::WorkloadQuery{gen.Generate(), 1.0});
      }
      workloads_.push_back(trap::advisor::EncodeWorkload(w));
    }
    configs_.push_back(trap::advisor::EncodeIndexConfig({}));
    for (int k = 1; k < 8; ++k) {
      trap::engine::IndexConfig cfg;
      for (int j = 0; j < 1 + k % 2; ++j) {
        const int g = (k * 7 + j * 13) % schema.num_columns();
        cfg.Add(trap::engine::Index{{schema.ColumnFromGlobalIndex(g)}});
      }
      configs_.push_back(trap::advisor::EncodeIndexConfig(cfg));
    }
  }

  Request Make(int64_t i) const {
    Request r;
    r.index = i;
    r.rpc.id = static_cast<uint64_t>(i) + 1;
    r.rpc.params = JsonValue::Object();
    if ((i + 1) % kPublishEvery == 0) {
      r.publish = true;
      r.rpc.method = "snapshot_stats";
      const int64_t p = (i + 1) / kPublishEvery;
      if (p % 4 == 0) {
        r.rpc.params.Set("reset", JsonValue::Bool(true));
      } else {
        // Column statistics only: index sizes, and so the storage budget
        // check on advise replies, stay those of the base schema.
        const std::string overlay =
            "{\"column_stats\":[{\"col\":[0," + std::to_string(p % 3) +
            "],\"stats\":{\"ndv\":" + std::to_string(100 + 150 * (p % 5)) +
            ",\"min\":0,\"max\":1000,\"skew\":" +
            std::to_string(0.25 * static_cast<double>(p % 4)) +
            "}}],\"table_rows\":[],\"added_tables\":[]}";
        r.rpc.params.Set("publish", *trap::common::ParseJson(overlay));
      }
    } else {
      trap::common::Rng rng(HashCombine(seed_, static_cast<uint64_t>(i)));
      const double pick = rng.Uniform();
      r.rpc.method = pick < 0.4 ? "whatif_batch" : pick < 0.7 ? "advise" : "assess";
      if (rng.Bernoulli(0.2)) {
        r.rpc.params.Set("workload", PickWorkload(rng));
      } else {
        r.rpc.params.Set("workload_seed",
                         JsonValue::Number(static_cast<double>(
                             rng.UniformInt(1, kWorkloadSeeds))));
        r.rpc.params.Set("workload_size", JsonValue::Number(kWorkloadSize));
      }
      const std::string advisor = kAdvisors[rng.UniformInt(0, 3)];
      r.constraint = trap::advisor::TuningConstraint::Storage(
          schema_->DataSizeBytes() / 2);
      if (r.rpc.method == "whatif_batch") {
        JsonValue configs = JsonValue::Array();
        const int64_t n = rng.UniformInt(2, 4);
        for (int64_t c = 0; c < n; ++c) {
          configs.Push(configs_[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(configs_.size()) - 1))]);
        }
        r.rpc.params.Set("configs", std::move(configs));
      } else {
        r.rpc.params.Set("advisor", JsonValue::Str(advisor));
        if (advisor == "AutoAdmin" || advisor == "Drop") {
          r.constraint = trap::advisor::TuningConstraint::IndexCount(
              4, schema_->DataSizeBytes() / 2);
          r.rpc.params.Set("constraint",
                           trap::advisor::EncodeConstraint(r.constraint));
        }
        if (r.rpc.method == "assess" && rng.Bernoulli(0.3)) {
          r.rpc.params.Set("perturbed", PickWorkload(rng));
        }
      }
    }
    r.frame = trap::common::EncodeFrame(rpc::EncodeRequest(r.rpc));
    return r;
  }

 private:
  const JsonValue& PickWorkload(trap::common::Rng& rng) const {
    return workloads_[static_cast<size_t>(
        rng.UniformInt(0, kExplicitWorkloads - 1))];
  }

  const trap::catalog::Schema* schema_;
  uint64_t seed_;
  std::vector<JsonValue> workloads_;
  std::vector<JsonValue> configs_;
};

uint64_t HashPayload(const std::string& payload) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool IsShed(const rpc::Response& resp) {
  return resp.status == trap::common::StatusCode::kResourceExhausted;
}

// Checks one reply against its request. Returns false (and fails the run)
// on a non-OK, non-shed reply or a wrong result.
bool CheckReply(const Request& req, const rpc::Response& resp,
                const trap::catalog::Schema& schema, RunResult* out) {
  const std::string where = "serve: " + req.rpc.method + " #" +
                            std::to_string(req.index) + ": ";
  if (resp.id != req.rpc.id) {
    out->Fail(where + "reply id mismatch");
    return false;
  }
  if (!resp.ok()) {
    if (!IsShed(resp)) out->Fail(where + resp.message);
    return false;
  }
  auto finite_at = [&](const char* key) {
    const std::optional<double> v = resp.result.NumberAt(key);
    return !v.has_value() || std::isfinite(*v);
  };
  if (req.rpc.method == "whatif_batch") {
    const JsonValue* costs = resp.result.Find("costs");
    if (costs == nullptr || costs->items.empty()) {
      out->Fail(where + "no costs");
      return false;
    }
    for (const JsonValue& c : costs->items) {
      if (!std::isfinite(c.number_value) || c.number_value < 0) {
        out->Fail(where + "bad cost");
        return false;
      }
    }
  } else if (req.rpc.method == "advise") {
    const JsonValue* doc = resp.result.Find("config");
    StatusOr<trap::engine::IndexConfig> config =
        doc == nullptr ? StatusOr<trap::engine::IndexConfig>(
                             Status::Internal("no config"))
                       : trap::advisor::DecodeIndexConfig(*doc);
    std::string why;
    if (!config.ok()) {
      out->Fail(where + config.status().ToString());
      return false;
    }
    if (!FitsTuningConstraint(*config, req.constraint, schema, &why)) {
      out->Fail(where + why);
      return false;
    }
  } else if (req.rpc.method == "assess") {
    if (!resp.result.NumberAt("utility").has_value() || !finite_at("utility") ||
        !finite_at("iudr")) {
      out->Fail(where + "non-finite utility or IUDR");
      return false;
    }
  }
  return true;
}

struct Conn {
  int fd = -1;
  trap::common::FrameDecoder decoder;
};

// Wall and CPU milliseconds of one request, from its send to its reply.
struct RequestTime {
  double rtt_ms = 0.0;
  double cpu_ms = 0.0;  // this process's plus the server's
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads what the socket has; kUnavailable on EOF, error or a reply that
// does not come within kReplyTimeoutS (the socket's receive timeout).
Status ReadSome(Conn* conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      conn->decoder.Append(buf, static_cast<size_t>(n));
      return Status::Ok();
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(n == 0 ? "server closed the connection"
                                      : std::strerror(errno));
  }
}

Status ReadFrameBlocking(Conn* conn, std::string* payload) {
  std::string error;
  while (true) {
    switch (conn->decoder.Next(payload, &error)) {
      case trap::common::FrameDecoder::Result::kFrame:
        return Status::Ok();
      case trap::common::FrameDecoder::Result::kMalformed:
        return Status::Internal("malformed frame: " + error);
      case trap::common::FrameDecoder::Result::kNeedMore:
        break;
    }
    TRAP_RETURN_IF_ERROR(ReadSome(conn));
  }
}

// A running trap_serve child and the client's connection to it.
class ServerSession {
 public:
  ServerSession() = default;
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;
  ~ServerSession() { Stop(); }

  // Spawns trap_serve and opens one handshaken connection.
  Status Start(const RunOptions& opts) {
    StatusOr<trap::common::Subprocess> spawned =
        trap::common::SpawnWithPipes(
            {opts.bin_dir + "/trap_serve", "--listen", kSocketPath, "--schema",
             "tpch", "--seed", kServerSeed});
    if (!spawned.ok()) return spawned.status();
    proc_ = *spawned;
    rotation_ = opts.rotation;
    if (rotation_ != nullptr) rotation_->SetPeer(proc_.pid);
    server_cpu_.emplace(proc_.pid);
    if (!server_cpu_->ok()) return Status::Unavailable("serve: no CPU clock");
    TRAP_ASSIGN_OR_RETURN(conn_.fd, Connect());
    const timeval timeout{static_cast<time_t>(kReplyTimeoutS), 0};
    ::setsockopt(conn_.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    std::string hello;
    TRAP_RETURN_IF_ERROR(ReadFrameBlocking(&conn_, &hello));
    return rpc::CheckHello(hello, "trap-serve");
  }

  // Graceful shutdown, then kill as a fallback; always reaps the child.
  void Stop() {
    if (!proc_.running()) return;
    if (rotation_ != nullptr) rotation_->SetPeer(0);
    server_cpu_.reset();
    if (conn_.fd >= 0) {
      rpc::Request bye;
      bye.id = std::numeric_limits<uint32_t>::max();
      bye.method = "shutdown";
      std::string reply;
      if (SendAll(conn_.fd, trap::common::EncodeFrame(rpc::EncodeRequest(bye)))) {
        (void)ReadFrameBlocking(&conn_, &reply);
      }
      ::close(conn_.fd);
      conn_.fd = -1;
    }
    trap::common::ClosePipes(&proc_);
    int code = 0;
    const double deadline = NowS() + 10.0;
    while (!trap::common::TryReap(&proc_, &code) && NowS() < deadline) {
      timespec pause{0, 5 * 1000 * 1000};
      ::nanosleep(&pause, nullptr);
    }
    if (proc_.running()) {
      trap::common::Kill(&proc_);
      trap::common::Reap(&proc_);
    }
  }

  // CPU seconds of this process and the server so far.
  double CpuS() const { return ProcessCpuS() + server_cpu_->Read(); }

  // Closed-loop drive of requests 0, 1, ... until `deadline`; calls
  // on_reply for every reply. Returns the number of requests sent (all of
  // which were answered).
  StatusOr<int64_t> Drive(
      const RequestStream& stream, double deadline,
      const std::function<void(const Request&, const std::string&,
                               const RequestTime&)>& on_reply) {
    int64_t next = 0;
    double server_s = server_cpu_->Read();
    while (NowS() < deadline) {
      const Request request = stream.Make(next++);
      std::string payload;
      const double cpu_start = ProcessCpuS();
      const double sent_at = NowS();
      if (!SendAll(conn_.fd, request.frame)) {
        return Status::Unavailable("serve: send failed");
      }
      TRAP_RETURN_IF_ERROR(ReadFrameBlocking(&conn_, &payload));
      RequestTime time;
      time.rtt_ms = (NowS() - sent_at) * 1e3;
      const double client_s = ProcessCpuS() - cpu_start;
      const double server_before = server_s;
      server_s = server_cpu_->Read();
      time.cpu_ms = (client_s + server_s - server_before) * 1e3;
      on_reply(request, payload, time);
    }
    return next;
  }

 private:
  static StatusOr<int> Connect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, kSocketPath, std::strlen(kSocketPath) + 1);
    const double deadline = NowS() + 30.0;  // the child is still binding
    while (true) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return Status::Unavailable(std::strerror(errno));
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return fd;
      }
      ::close(fd);
      if (NowS() > deadline) {
        return Status::Unavailable("serve: cannot connect to trap_serve");
      }
      timespec pause{0, 2 * 1000 * 1000};
      ::nanosleep(&pause, nullptr);
    }
  }

  trap::common::Subprocess proc_;
  Conn conn_;
  std::optional<PeerCpuClock> server_cpu_;
  CpuRotation* rotation_ = nullptr;
};

// Per-request observations of one drive.
struct DriveLog {
  std::vector<uint64_t> payload_hashes;  // by request index, digest prefix
  std::map<std::string, Samples> rtt_ms;  // by method
  Samples rtt_all_ms;
  Samples cpu_ms;  // every request's CPU time, client and server
  Samples post_publish_ms;
  Samples steady_ms;
  Samples req_bytes;
  int64_t sheds = 0;
  int64_t last_publish = -1;
};

StatusOr<int64_t> DriveAndCheck(ServerSession* session,
                                const RequestStream& stream,
                                const trap::catalog::Schema& schema,
                                double deadline, DriveLog* log, RunResult* out) {
  log->payload_hashes.assign(kDigestRequests, 0);
  return session->Drive(
      stream, deadline,
      [&](const Request& req, const std::string& payload,
          const RequestTime& time) {
        const double rtt_ms = time.rtt_ms;
        ++out->attempted;
        StatusOr<rpc::Response> resp = rpc::DecodeResponse(payload);
        if (!resp.ok()) {
          ++out->failed;
          out->Fail("serve: undecodable reply: " + resp.status().ToString());
          return;
        }
        if (!CheckReply(req, *resp, schema, out)) ++out->failed;
        if (IsShed(*resp)) ++log->sheds;
        if (req.index < kDigestRequests) {
          log->payload_hashes[static_cast<size_t>(req.index)] =
              HashPayload(payload);
        }
        log->rtt_ms[req.rpc.method].Add(rtt_ms);
        log->rtt_all_ms.Add(rtt_ms);
        log->cpu_ms.Add(time.cpu_ms);
        log->req_bytes.Add(static_cast<double>(req.frame.size()));
        if (req.publish) {
          log->last_publish = req.index;
        } else if (log->last_publish >= 0 &&
                   req.index - log->last_publish <= kPostPublishRequests) {
          log->post_publish_ms.Add(rtt_ms);
        } else {
          log->steady_ms.Add(rtt_ms);
        }
      });
}

uint64_t FoldDigest(const std::vector<uint64_t>& hashes, int64_t n) {
  uint64_t digest = 0;
  for (int64_t i = 0; i < n; ++i) {
    digest = HashCombine(digest, HashCombine(static_cast<uint64_t>(i),
                                             hashes[static_cast<size_t>(i)]));
  }
  return digest;
}

}  // namespace

void RunServeMixed(const RunOptions& opts, RunResult* out) {
  out->op_unit = "request";
  out->load_processes = 1;
  const trap::catalog::Schema schema = trap::catalog::MakeTpcH();
  const RequestStream stream(schema, opts.seed);

  auto session = std::make_unique<ServerSession>();
  for (int r = 0; r < kSetupRepeats; ++r) {
    session = std::make_unique<ServerSession>();  // stops the previous one
    const double t = ProcessCpuS();
    const Status started = session->Start(opts);
    if (!started.ok()) {
      out->Fail("serve: " + started.ToString());
      return;
    }
    // This process's CPU time plus all of the new server's.
    out->setup_s.Add(session->CpuS() - t);
  }

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  DriveLog log;
  const double loop_start = NowS();
  const double loop_cpu_start = session->CpuS();
  StatusOr<int64_t> sent =
      DriveAndCheck(session.get(), stream, schema, loop_start + budget, &log,
                    out);
  out->loop_cpu_s = session->CpuS() - loop_cpu_start;
  out->loop_s = NowS() - loop_start;
  session.reset();
  if (!sent.ok()) {
    out->Fail(sent.status().ToString());
    return;
  }
  out->op_cpu_ms = log.cpu_ms;
  out->ops = *sent;
  out->digest_ops = std::min(*sent, kDigestRequests);
  out->digest = FoldDigest(log.payload_hashes, out->digest_ops);
  out->untraced_ops_s = out->loop_s;
  if (!opts.trace) return;
  // The socket metrics come from the drive above: no wrapper sits on the
  // socket path, so a traced drive would only repeat it.
  out->traced_ops_s = out->untraced_ops_s;

  // The same stream through ServeService::Handle in this process: service
  // time without framing, sockets or the poll loop.
  trap::serve::ServiceOptions service_options;  // as trap_serve builds them
  service_options.schema = "tpch";
  service_options.seed = std::stoull(kServerSeed);
  StatusOr<std::unique_ptr<trap::serve::ServeService>> service =
      trap::serve::ServeService::Create(service_options);
  if (!service.ok()) {
    out->Fail("serve: " + service.status().ToString());
    return;
  }
  std::map<std::string, Samples> handle_ms;
  Samples handle_all_ms;
  std::vector<uint64_t> inproc_hashes(kDigestRequests, 0);
  const Counts before = SnapshotCounts();
  for (int64_t i = 0; i < *sent; ++i) {
    const Request req = stream.Make(i);
    const double t = NowS();
    const rpc::Response resp =
        (*service)->Handle(req.rpc, (*service)->snapshots().Current());
    const double ms = (NowS() - t) * 1e3;
    handle_ms[req.rpc.method].Add(ms);
    handle_all_ms.Add(ms);
    if (i < kDigestRequests) {
      inproc_hashes[static_cast<size_t>(i)] =
          HashPayload(rpc::EncodeResponse(resp));
    }
  }
  const Counts after = SnapshotCounts();
  if (FoldDigest(inproc_hashes, out->digest_ops) != out->digest) {
    out->Fail("serve: replies differ from in-process Handle");
  }

  std::map<std::string, double>& L = out->layers;
  AddRegistryLayers(before, after, static_cast<double>(*sent), out);
  for (const char* m : kMethods) {
    const std::string method = m;
    // A snapshot_stats Handle is a catalog publish: catalog.publish_ms.
    if (method != "snapshot_stats") {
      L["serve.handle_ms." + method + "_p50"] = handle_ms[method].Median();
    }
    L["serve.rtt_ms." + method + "_p50"] = log.rtt_ms[method].Median();
  }
  L["serve.transport_ms_p50"] =
      log.rtt_all_ms.Median() - handle_all_ms.Median();
  L["serve.post_publish_ms_p50"] = log.post_publish_ms.Median();
  L["serve.steady_ms_p50"] = log.steady_ms.Median();
  L["serve.sheds"] = static_cast<double>(log.sheds);
  L["serve.req_bytes_p50"] = log.req_bytes.Median();
  L["catalog.publish_ms"] = handle_ms["snapshot_stats"].Median();
  L["catalog.build_s"] =
      MedianSeconds(kSetupRepeats, [] { (void)trap::catalog::MakeTpcH(); });
  ProbeWhatIfSweeps(schema, opts.seed, 0.5, opts.rotation, out);
}

}  // namespace perfbench
