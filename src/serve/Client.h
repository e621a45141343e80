// cfd::serve::Client — blocking client for the compile daemon
// (DESIGN.md §15).
//
// The client side of serve/Protocol.h used by `cfdc --connect`, the
// serve tests, and the dist coordinator: connect() to a daemon's socket,
// then call() requests and get matched responses back. call() blocks;
// for pipelined use, send() several requests and receive() each id as
// needed — responses arriving for other ids are stashed and handed
// out when asked for, so out-of-order arrival (priorities, cancel
// acks) never loses a message.
//
// A Client is deliberately single-threaded (no internal locking): one
// client per thread, as many clients per process as you like — the
// shape of test_serve's pipelined flood.
#pragma once

#include "serve/Protocol.h"
#include "support/Expected.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cfd::serve {

class Client {
public:
  Client() = default;
  ~Client() { closeConnection(); }

  Client(Client&& other) noexcept { *this = std::move(other); }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      closeConnection();
      fd_ = other.fd_;
      other.fd_ = -1;
      buffer_ = std::move(other.buffer_);
      lineStart_ = std::exchange(other.lineStart_, 0);
      scanned_ = std::exchange(other.scanned_, 0);
      stash_ = std::move(other.stash_);
      nextId_ = other.nextId_;
    }
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a daemon's socket; failure carries one stage-"serve"
  /// diagnostic (no daemon, bad path, ...).
  static Expected<Client> connect(const std::string& socketPath);

  bool connected() const { return fd_ >= 0; }

  /// Fresh request id (1, 2, ... per client).
  std::int64_t nextId() { return nextId_++; }

  /// Sends `request` (assigning a fresh id when it has none) and
  /// blocks until its response arrives. A protocol-error response the
  /// daemon addressed to id 0 (it could not read our id) also resolves
  /// the call.
  Expected<Response> call(Request request);

  /// Fire-and-forget send; false when the connection is down.
  bool send(const Request& request);

  /// Blocks until the final response with `id` arrives (stashing other
  /// final responses). Streamed events (Response::event) are dropped —
  /// use receiveAny() when progress matters.
  Expected<Response> receive(std::int64_t id);

  /// Blocks until any message arrives — a stashed final response, a
  /// fresh final response, or a streamed event (Response::event set).
  /// The dist coordinator pairs this with fd() + poll(2) to watch a
  /// worker with a deadline (DESIGN.md §16).
  Expected<Response> receiveAny();

  /// The connection's file descriptor (-1 when closed), for poll(2).
  /// Note the read path is buffered: check hasBufferedLine() before
  /// blocking in poll, or a complete message already received can sit
  /// unread in buffer_/stash_ while poll waits.
  int fd() const { return fd_; }

  /// True when a stashed response or a full buffered line is already
  /// available, i.e. receiveAny() would return without touching the
  /// socket.
  bool hasBufferedLine() const {
    return !stash_.empty() ||
           buffer_.find('\n', scanned_) != std::string::npos;
  }

  /// Half-closes the write side: the daemon sees EOF — exactly what a
  /// crashed client looks like — while this end can still drain
  /// responses. Used by the disconnect-cancels-job test.
  void shutdownWrites();

  void closeConnection();

private:
  /// Reads one full line from the socket; false on EOF/error. `line`
  /// views the receive buffer and stays valid until the next call.
  /// Each received byte is scanned for '\n' once. A final message the
  /// peer sent without a trailing '\n' before closing is still
  /// surfaced as a line (once) rather than silently dropped.
  bool readLine(std::string_view& line);

  int fd_ = -1;
  std::string buffer_;
  std::size_t lineStart_ = 0; ///< where the unread part of buffer_ starts
  std::size_t scanned_ = 0;   ///< buffer_ before this holds no unread '\n'
  std::vector<Response> stash_;
  std::int64_t nextId_ = 1;
};

} // namespace cfd::serve
