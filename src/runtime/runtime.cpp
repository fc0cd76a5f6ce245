#include "runtime/runtime.h"

#include <atomic>
#include <utility>

#include "common/check.h"

namespace cim::rt {

Runtime::Runtime(isc::Federation& federation) : federation_(federation) {}

Runtime::~Runtime() { stop(); }

void Runtime::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  CIM_CHECK_MSG(!running_, "runtime already started");
  running_ = true;
  stop_requested_ = false;
  engine_ = std::thread([this]() { engine_loop(); });
}

void Runtime::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
    stop_flag_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  engine_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

bool Runtime::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void Runtime::post(sim::Simulator::Action fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CIM_CHECK_MSG(running_ && !stop_requested_,
                  "post() on a stopped runtime");
    injected_.push_back(std::move(fn));
    has_injected_.store(true, std::memory_order_release);
  }
  // Cheap when the engine is spinning rather than parked: notify_one on a
  // waiter-less condition variable is an atomic check, no syscall.
  cv_.notify_one();
}

void Runtime::engine_loop() {
  sim::Simulator& sim = federation_.simulator();
  while (true) {
    // Drain injected calls into the simulator as immediate events.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!injected_.empty()) {
        sim.post(std::move(injected_.front()));
        injected_.pop_front();
      }
      has_injected_.store(false, std::memory_order_relaxed);
      if (sim.empty()) {
        // Idle: spin briefly off-lock before parking — a blocking client is
        // usually about to post the next operation, and catching it in the
        // spin skips a futex sleep/wake round trip. Yield so the poster gets
        // the core on single-CPU hosts.
        lock.unlock();
        for (int i = 0; i < 4096; ++i) {
          if (has_injected_.load(std::memory_order_acquire) ||
              stop_flag_.load(std::memory_order_acquire)) {
            break;
          }
          if ((i & 15) == 15) std::this_thread::yield();
        }
        lock.lock();
        if (!injected_.empty()) continue;
        // Nothing arrived during the spin: park until work or stop. On
        // stop, remaining simulator work (none, since empty) is done — exit.
        if (stop_requested_) return;
        cv_.wait(lock, [this]() {
          return stop_requested_ || !injected_.empty();
        });
        continue;
      }
    }
    // Execute simulator events without holding the lock; batches keep the
    // locking overhead away from the hot path.
    for (int i = 0; i < 256 && sim.step(); ++i) {
    }
  }
}

namespace {

// One blocking call's rendezvous, on the caller's stack. Replaces
// promise/future, whose shared state costs a heap allocation per operation.
// The caller spins briefly (yielding, so a single-core host lets the engine
// run) before parking on the condition variable. The cell dies the moment
// wait() returns, so signal() touches it only under the mutex, and wait()
// takes the mutex once before returning: the signaller is then done with it.
struct SyncCell {
  std::atomic<bool> ready{false};
  std::mutex m;
  std::condition_variable cv;
  Value value = kInitValue;

  void signal() {
    std::lock_guard<std::mutex> lock(m);
    ready.store(true, std::memory_order_release);
    cv.notify_one();
  }

  void wait() {
    for (int i = 0; i < 1024; ++i) {
      if (ready.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(m);
        return;
      }
      if ((i & 15) == 15) std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock,
            [this]() { return ready.load(std::memory_order_acquire); });
  }
};

}  // namespace

Value BlockingClient::read(VarId var) {
  SyncCell cell;
  runtime_.post([this, var, &cell]() {
    app_.read(var, [&cell](Value v) {
      cell.value = v;
      cell.signal();
    });
  });
  cell.wait();
  return cell.value;
}

void BlockingClient::write(VarId var, Value value) {
  SyncCell cell;
  runtime_.post([this, var, value, &cell]() {
    app_.write(var, value, [&cell]() { cell.signal(); });
  });
  cell.wait();
}

}  // namespace cim::rt
