#include "http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "dist/http_client.h"

extern char** environ;

namespace perfbench {

std::string WireRequest(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

bool KeepAliveClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  // A reply slower than this is a failed request, not a slow one.
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return false;
  }
  return true;
}

void KeepAliveClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool KeepAliveClient::Fill(std::string* buffer) {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer->append(chunk, static_cast<size_t>(n));
  return true;
}

bool KeepAliveClient::Send(uint16_t port, const std::string& wire,
                           int* status, std::string* body) {
  if (fd_ < 0 && !Connect(port)) return false;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string buffer;
  size_t head_end = std::string::npos;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(&buffer)) {
      Close();
      return false;
    }
  }
  if (buffer.size() < 12 || buffer.compare(0, 5, "HTTP/") != 0) {
    Close();
    return false;
  }
  *status = std::atoi(buffer.c_str() + 9);
  size_t content_length = 0;
  const std::string head = buffer.substr(0, head_end);
  const std::string key = "Content-Length: ";
  if (const size_t at = head.find(key); at != std::string::npos) {
    content_length = static_cast<size_t>(
        std::strtoull(head.c_str() + at + key.size(), nullptr, 10));
  }
  std::string payload = buffer.substr(head_end + 4);
  while (payload.size() < content_length) {
    if (!Fill(&payload)) {
      Close();
      return false;
    }
  }
  payload.resize(content_length);
  *body = std::move(payload);
  if (head.find("Connection: close") != std::string::npos) Close();
  return true;
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& extra_args,
                          const std::string& log_path) {
  std::vector<std::string> args = {binary, "serve", "--port", "0"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // Request logging at info level would put the log writes on the
  // measured path; warnings and errors still reach the log file.
  std::vector<std::string> env_storage = {"SURF_LOG_LEVEL=warn"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SURF_LOG_LEVEL=", 15) != 0) env_storage.push_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  const std::string marker = "listening on http://127.0.0.1:";
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < give_up) {
    std::ifstream log(log_path);
    std::stringstream text;
    text << log.rdbuf();
    const std::string s = text.str();
    const size_t at = s.find(marker);
    if (at != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(s.c_str() + at + marker.size()));
      return port_ != 0;
    }
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop();
  return false;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  port_ = 0;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

PromSamples ScrapeMetrics(uint16_t port) {
  PromSamples samples;
  auto reply = surf::dist::HttpGet("127.0.0.1", port, "/metrics", 30.0, {});
  if (!reply.ok() || reply->status_code != 200) return samples;
  std::istringstream text(reply->body);
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double SumMetric(const PromSamples& samples, const std::string& metric,
                 const std::string& label_filter) {
  double total = 0.0;
  for (const auto& [name, value] : samples) {
    if (name.compare(0, metric.size(), metric) != 0) continue;
    if (name.size() != metric.size() && name[metric.size()] != '{') continue;
    if (!label_filter.empty() && name.find(label_filter) == std::string::npos) {
      continue;
    }
    total += value;
  }
  return total;
}

}  // namespace perfbench
