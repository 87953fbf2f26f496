// Loopback plumbing for the surfd benchmark: a keep-alive HTTP client
// for the load phases, the surfd child processes, and /metrics scraping.

#ifndef PERFBENCH_HTTP_H_
#define PERFBENCH_HTTP_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One HTTP request on the wire, with optional QoS headers.
std::string WireRequest(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {});

/// \brief Blocking HTTP/1.1 client holding one keep-alive connection.
class KeepAliveClient {
 public:
  KeepAliveClient() = default;
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;
  ~KeepAliveClient() { Close(); }

  /// Sends `wire` and reads one Content-Length framed reply. Connects
  /// (or reconnects after a failure) on demand. Returns false on any
  /// transport failure; `*status` and `*body` are then unspecified.
  bool Send(uint16_t port, const std::string& wire, int* status,
            std::string* body);
  void Close();

 private:
  bool Connect(uint16_t port);
  bool Fill(std::string* buffer);

  int fd_ = -1;
};

/// \brief A `surf_cli serve` child process on an ephemeral loopback port.
/// The destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts `binary serve --port 0 <extra_args>` with its output in
  /// `log_path`, and waits until it reports its port.
  bool Start(const std::string& binary,
             const std::vector<std::string>& extra_args,
             const std::string& log_path);
  /// Drains and reaps the process; no-op when not running.
  void Stop();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// High-water resident set size (VmHWM) in MiB, 0 when unreadable.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Prometheus text exposition, as sample name (labels included) → value.
using PromSamples = std::map<std::string, double>;

/// Scrapes /metrics. Empty on failure.
PromSamples ScrapeMetrics(uint16_t port);

/// Sum of every sample whose name is `metric` or `metric{...}` and whose
/// label set contains `label_filter` (empty = any).
double SumMetric(const PromSamples& samples, const std::string& metric,
                 const std::string& label_filter = "");

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_H_
