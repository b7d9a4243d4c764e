//===-- serve/RequestBatcher.cpp - Per-shard request batching -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/RequestBatcher.h"

#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

bool RequestBatcher::push(QueuedRequest R) {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Closed)
      return false;
    Queue.push_back(std::move(R));
  }
  chaos::point("serve.batcher.push");
  Cv.notify_one();
  return true;
}

bool RequestBatcher::takeBatch(Batch &Out, size_t Max) {
  Out.clear();
  std::unique_lock<std::mutex> Lock(Mutex);
  Cv.wait(Lock, [this] { return Closed || !Queue.empty(); });
  if (Queue.empty())
    return false; // closed and drained
  size_t N = Queue.size() < Max ? Queue.size() : Max;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Out.push_back(std::move(Queue.front()));
    Queue.pop_front();
    if (Out.back().Kind != Request::Kind::Eval)
      break; // a control request ends its batch
  }
  return true;
}

void RequestBatcher::close() {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Closed = true;
  }
  Cv.notify_all();
}

size_t RequestBatcher::depth() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.size();
}

uint64_t RequestBatcher::oldestEnqueueNs() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.empty() ? 0 : Queue.front().EnqueueNs;
}
