//===-- vkernel/IpcChannel.h - Send/Receive/Reply IPC -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The V kernel's message-passing IPC in miniature: a synchronous
/// Send/Receive/Reply channel. MS used it (together with a global flag)
/// to synchronize all interpreter processes for garbage collection, because
/// scavenging takes too long for spin-locks (paper §3.1). Here Safepoint
/// does that job with a flag and a condition variable; the channel stays
/// as the V primitive, exercised by its tests and the IPC round-trip
/// benchmarks.
///
/// Semantics follow V: Send blocks the sender until the receiver Replies;
/// Receive blocks until a message is available and returns a handle the
/// receiver later passes to Reply.
///
/// Shutdown: destroying a channel (or calling shutdown()) wakes every
/// blocked sender with ShutdownResponse and every blocked receiver with a
/// null handle, then waits for them to drain before the members are torn
/// down — a channel can always be destroyed, even with threads parked in
/// it. After shutdown, send() returns ShutdownResponse immediately,
/// receive() returns nullptr, and reply() to an already-shut-down handle
/// is a no-op.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VKERNEL_IPCCHANNEL_H
#define MST_VKERNEL_IPCCHANNEL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace mst {

/// A synchronous message channel with V Send/Receive/Reply semantics.
class IpcChannel {
public:
  /// Opaque handle identifying a received, not-yet-replied message.
  using MessageHandle = void *;

  /// The reply value senders observe when the channel shuts down from
  /// under them. Real replies carrying this value are indistinguishable
  /// from shutdown by design — V's ReplyWithSegment has the same ambiguity.
  static constexpr uint64_t ShutdownResponse = ~uint64_t(0);

  IpcChannel() = default;
  IpcChannel(const IpcChannel &) = delete;
  IpcChannel &operator=(const IpcChannel &) = delete;

  /// Shuts down and waits for every blocked sender/receiver to leave.
  ~IpcChannel();

  /// Sends \p Request and blocks until the receiver replies.
  /// \returns the receiver's reply value, or ShutdownResponse if the
  /// channel shut down before a reply arrived.
  uint64_t send(uint64_t Request);

  /// Blocks until a message arrives. \param [out] Request receives the
  /// sender's request value. \returns a handle to pass to reply(), or
  /// nullptr when the channel shut down while waiting.
  MessageHandle receive(uint64_t &Request);

  /// Attempts a non-blocking receive. \returns a handle, or nullptr when no
  /// message is pending (or the channel has shut down).
  MessageHandle tryReceive(uint64_t &Request);

  /// Replies to the message identified by \p Handle, unblocking its sender.
  /// No-op if the channel shut down after the handle was received (the
  /// sender was already released with ShutdownResponse).
  void reply(MessageHandle Handle, uint64_t Response);

  /// Wakes all blocked senders (with ShutdownResponse) and receivers (with
  /// a null handle). Idempotent. Does not wait for them to drain — the
  /// destructor does.
  void shutdown();

  /// \returns true once shutdown() has run.
  bool isShutdown();

  /// \returns the number of senders currently queued or awaiting replies.
  unsigned pendingSenders();

  /// \returns the number of threads currently parked inside send() or
  /// receive(). Test support: destroying a channel is only well-defined
  /// for threads already *inside* a call, and this is how a test observes
  /// that (a thread about to call send/receive is not counted).
  unsigned waiters();

private:
  struct Message {
    uint64_t Request = 0;
    uint64_t Response = 0;
    bool Replied = false;
    std::condition_variable Cv;
  };

  std::mutex Mutex;
  std::condition_variable Arrived;
  std::condition_variable Drained;
  std::deque<Message *> Queue;       // Sent, not yet received.
  std::vector<Message *> InFlight;   // Received, not yet replied.
  unsigned Waiters = 0;              // Threads blocked inside send/receive.
  bool ShuttingDown = false;
};

} // namespace mst

#endif // MST_VKERNEL_IPCCHANNEL_H
