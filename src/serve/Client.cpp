#include "serve/Client.h"

#include "serve/Io.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cfd::serve {

Expected<Client> Client::connect(const std::string& socketPath) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socketPath.empty() || socketPath.size() >= sizeof(address.sun_path))
    return Expected<Client>::failure(
        "socket path '" + socketPath +
            "' is empty or too long for a Unix domain socket",
        "serve");
  std::memcpy(address.sun_path, socketPath.c_str(), socketPath.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    return Expected<Client>::failure(
        std::string("cannot create socket: ") + std::strerror(errno),
        "serve");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return Expected<Client>::failure(
        "cannot connect to '" + socketPath + "': " + reason +
            " (is the daemon running? start one with cfdc --serve)",
        "serve");
  }
  Client client;
  client.fd_ = fd;
  return client;
}

void Client::closeConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::shutdownWrites() {
  if (fd_ >= 0)
    ::shutdown(fd_, SHUT_WR);
}

bool Client::send(const Request& request) {
  if (fd_ < 0)
    return false;
  std::string line = request.encode();
  line += '\n';
  return sendAll(fd_, line.data(), line.size());
}

bool Client::readLine(std::string_view& line) {
  // The line handed out last time is consumed now; a buffer holding
  // nothing else is emptied, keeping its capacity for the next one.
  if (lineStart_ == buffer_.size()) {
    buffer_.clear();
    lineStart_ = scanned_ = 0;
  }
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      line = std::string_view(buffer_).substr(lineStart_,
                                              newline - lineStart_);
      lineStart_ = scanned_ = newline + 1;
      return true;
    }
    scanned_ = buffer_.size();
    if (lineStart_ > 0) {
      // Only a partial line follows the consumed ones: move it to the
      // front before the buffer grows.
      buffer_.erase(0, lineStart_);
      scanned_ -= lineStart_;
      lineStart_ = 0;
    }
    char chunk[4096];
    const ssize_t n = recvSome(fd_, chunk, sizeof(chunk));
    if (n == 0 && !buffer_.empty()) {
      // Orderly EOF with an unterminated final message: a daemon that
      // wrote its last response and closed before flushing the '\n'
      // (or crashed between the two writes). Hand the leftover to the
      // parser instead of losing a complete answer.
      line = buffer_;
      lineStart_ = scanned_ = buffer_.size();
      return true;
    }
    if (n <= 0)
      return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Expected<Response> Client::receive(std::int64_t id) {
  if (fd_ < 0)
    return Expected<Response>::failure("client is not connected", "serve");
  for (auto it = stash_.begin(); it != stash_.end(); ++it)
    if (it->id == id) {
      Response response = std::move(*it);
      stash_.erase(it);
      return response;
    }
  std::string_view line;
  for (;;) {
    if (!readLine(line))
      return Expected<Response>::failure(
          "connection closed by the daemon before a response for request " +
              std::to_string(id) + " arrived",
          "serve");
    Expected<Response> parsed = Response::parse(line);
    if (!parsed)
      return parsed; // a daemon we cannot understand is fatal
    if (!parsed->event.empty())
      continue; // progress events never resolve a receive()
    // id 0 marks a protocol error for a request whose id the daemon
    // could not read — it can only belong to the request we just sent.
    if (parsed->id == id || parsed->id == 0)
      return parsed;
    stash_.push_back(std::move(*parsed));
  }
}

Expected<Response> Client::receiveAny() {
  if (fd_ < 0)
    return Expected<Response>::failure("client is not connected", "serve");
  if (!stash_.empty()) {
    Response response = std::move(stash_.front());
    stash_.erase(stash_.begin());
    return response;
  }
  std::string_view line;
  if (!readLine(line))
    return Expected<Response>::failure(
        "connection closed by the daemon", "serve");
  return Response::parse(line);
}

Expected<Response> Client::call(Request request) {
  if (request.id == 0)
    request.id = nextId();
  if (!send(request))
    return Expected<Response>::failure(
        "cannot send request " + std::to_string(request.id) +
            ": connection is down",
        "serve");
  return receive(request.id);
}

} // namespace cfd::serve
