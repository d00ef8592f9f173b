#include "runtime/socket_runtime.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/assert.h"
#include "wire/messages.h"

namespace paris::runtime {

namespace sockdetail {

namespace {
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace

void append_frame(std::vector<std::uint8_t>& out, NodeId from, NodeId to,
                  const std::uint8_t* msg, std::size_t n) {
  put_u32(out, static_cast<std::uint32_t>(n + 8));  // from + to + payload
  put_u32(out, from);
  put_u32(out, to);
  out.insert(out.end(), msg, msg + n);
}

std::uint8_t* FrameReassembler::reserve(std::size_t n) {
  // Compact the consumed prefix once it dominates, amortizing the memmove.
  // reserve() is the only safe point: the caller's contract says FrameViews
  // do not outlive the next reserve()/feed()/next*() call, and next_view()
  // must not move the buffer under the view it just returned.
  if (off_ > 4096 && off_ * 2 > len_) {
    std::memmove(buf_.data(), buf_.data() + off_, len_ - off_);
    len_ -= off_;
    off_ = 0;
  }
  if (len_ + n > buf_.size()) buf_.resize(len_ + n);
  return buf_.data() + len_;
}

bool FrameReassembler::feed(const std::uint8_t* p, std::size_t n) {
  if (bad_) return false;
  std::memcpy(reserve(n), p, n);
  commit(n);
  return true;
}

bool FrameReassembler::next_view(FrameView& out) {
  if (bad_) return false;
  const std::size_t avail = len_ - off_;
  if (avail < kFrameHeader) {
    // Everything consumed: rewind so the buffer never grows unboundedly
    // from leftover prefixes.
    if (off_ != 0 && avail == 0) {
      len_ = 0;
      off_ = 0;
    }
    return false;
  }
  const std::uint32_t len = get_u32(buf_.data() + off_);
  if (len < 8 || len > kMaxFrame) {
    bad_ = true;  // stream corrupt; the connection must be torn down
    return false;
  }
  if (avail < kFrameHeader + len) return false;  // partial frame: wait for more
  const std::uint8_t* p = buf_.data() + off_ + kFrameHeader;
  out.from = get_u32(p);
  out.to = get_u32(p + 4);
  out.data = p + 8;
  out.len = len - 8;
  off_ += kFrameHeader + len;
  return true;
}

bool FrameReassembler::next(Frame& out) {
  FrameView v;
  if (!next_view(v)) return false;
  out.from = v.from;
  out.to = v.to;
  out.bytes.assign(v.data, v.data + v.len);
  return true;
}

std::size_t FrameQueueCursor::build(const std::vector<std::vector<std::uint8_t>>& frames,
                                    struct iovec* iov, std::size_t max_iov,
                                    std::size_t max_bytes) const {
  std::size_t n = 0, bytes = 0, off = off_;
  for (std::size_t i = frame_; i < frames.size() && n < max_iov && bytes < max_bytes;
       ++i) {
    std::size_t take = frames[i].size() - off;
    if (bytes + take > max_bytes) take = max_bytes - bytes;
    if (take != 0) {
      iov[n].iov_base = const_cast<std::uint8_t*>(frames[i].data() + off);
      iov[n].iov_len = take;
      ++n;
      bytes += take;
    }
    off = 0;  // only the first (resumed) frame starts mid-buffer
  }
  return n;
}

void FrameQueueCursor::advance(const std::vector<std::vector<std::uint8_t>>& frames,
                               std::size_t n) {
  while (n > 0) {
    PARIS_DCHECK(frame_ < frames.size());
    const std::size_t left = frames[frame_].size() - off_;
    if (n < left) {
      off_ += n;
      return;
    }
    n -= left;
    ++frame_;
    off_ = 0;
  }
}

}  // namespace sockdetail

namespace {

// Redial backoff: capped exponential per dead episode. The first retry is
// quick (a blip should not stall the mesh), the cap keeps a dead peer from
// being hammered, and the attempt cap bounds a peer that never comes back —
// a respawned incarnation revives the episode by dialing US.
constexpr std::uint64_t kRedialBaseUs = 50'000;
constexpr std::uint64_t kRedialCapUs = 2'000'000;
constexpr std::uint32_t kRedialMaxTries = 64;
constexpr std::uint64_t kBeaconPeriodUs = 50'000;  ///< epoch lease heartbeat
constexpr std::uint64_t kFlushBudgetUs = 300'000;  ///< stop(): outbuf drain bound
constexpr int kPollSliceMs = 100;
/// Recycled frame buffers kept per peer; beyond this they just deallocate.
constexpr std::size_t kSpareCap = 256;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  PARIS_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// [magic u32][rank u32][token u64][epoch u32][view u32], little-endian via
/// memcpy (the mesh is homogeneous x86/ARM-LE in every supported deployment;
/// a mixed-endian mesh would pin byte order explicitly).
void make_hello(std::uint8_t (&h)[sockdetail::kHelloSize], std::uint32_t rank,
                std::uint64_t token, std::uint32_t epoch, std::uint32_t view) {
  const std::uint32_t magic = sockdetail::kHelloMagic;
  std::memcpy(h, &magic, 4);
  std::memcpy(h + 4, &rank, 4);
  std::memcpy(h + 8, &token, 8);
  std::memcpy(h + 16, &epoch, 4);
  std::memcpy(h + 20, &view, 4);
}

bool parse_hello(const std::uint8_t (&h)[sockdetail::kHelloSize], std::uint32_t& rank,
                 std::uint64_t& token, std::uint32_t& epoch, std::uint32_t& view) {
  std::uint32_t magic;
  std::memcpy(&magic, h, 4);
  std::memcpy(&rank, h + 4, 4);
  std::memcpy(&token, h + 8, 8);
  std::memcpy(&epoch, h + 16, 4);
  std::memcpy(&view, h + 20, 4);
  return magic == sockdetail::kHelloMagic;
}

}  // namespace

SocketBackend::SocketBackend(Options opt)
    : opt_(std::move(opt)), tb_(ThreadBackend::Options{opt_.workers, opt_.seed}) {
  PARIS_CHECK(opt_.nprocs >= 1 && opt_.rank < opt_.nprocs && opt_.outbound_budget > 0);
  std::string err;
  PARIS_CHECK_MSG(validate_host_list(opt_.hosts, opt_.nprocs, &err),
                  ("socket backend: bad host list: " + err).c_str());
  tb_.set_router(this);
  peers_.reserve(opt_.nprocs);
  for (std::uint32_t r = 0; r < opt_.nprocs; ++r) {
    peers_.push_back(std::make_unique<Peer>());
    peers_[r]->we_dial = r < opt_.rank;  // dial down, accept up
  }
  peer_epochs_ = std::make_unique<std::atomic<std::uint32_t>[]>(opt_.nprocs);
  peer_views_ = std::make_unique<std::atomic<std::uint32_t>[]>(opt_.nprocs);
  for (std::uint32_t r = 0; r < opt_.nprocs; ++r) {
    peer_epochs_[r].store(0, std::memory_order_relaxed);
    peer_views_[r].store(0, std::memory_order_relaxed);
  }
}

bool SocketBackend::note_epoch(std::uint32_t rank, std::uint32_t e) {
  auto& slot = peer_epochs_[rank];
  std::uint32_t cur = slot.load(std::memory_order_acquire);
  while (e > cur) {
    if (slot.compare_exchange_weak(cur, e, std::memory_order_acq_rel)) {
      if (epoch_listener_) epoch_listener_(rank, e);
      return true;
    }
  }
  return e >= cur;  // false: stale incarnation — the caller fences it
}

void SocketBackend::note_view(std::uint32_t rank, std::uint32_t v) {
  auto& slot = peer_views_[rank];
  std::uint32_t cur = slot.load(std::memory_order_acquire);
  while (v > cur) {
    if (slot.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
      if (view_listener_) view_listener_(rank, v);
      return;
    }
  }
}

void SocketBackend::advertise_view(std::uint32_t v) {
  auto& slot = peer_views_[opt_.rank];
  std::uint32_t cur = slot.load(std::memory_order_acquire);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
  // Push the news now instead of waiting out the beacon period: the view
  // change gates the joiner's catch-up phase, so propagation latency is
  // directly part of the join window.
  bool poke = false;
  for (auto& up : peers_) {
    if (up->alive) {
      queue_beacon(*up);
      poke = true;
    }
  }
  if (poke) wake();
}

void SocketBackend::queue_beacon(Peer& p) {
  const std::uint32_t view = peer_views_[opt_.rank].load(std::memory_order_acquire);
  std::uint8_t payload[sockdetail::kBeaconBytes];
  std::memcpy(payload, &opt_.rank, 4);
  std::memcpy(payload + 4, &opt_.epoch, 4);
  std::memcpy(payload + 8, &view, 4);
  std::lock_guard<std::mutex> lk(p.mu);
  if (!p.alive) return;
  // Beacons bypass the budget (they ARE the liveness signal and are tiny)
  // but still account: queued is the pump's "anything unwritten?" test.
  std::vector<std::uint8_t> buf;
  if (!p.spare.empty()) {
    buf = std::move(p.spare.back());
    p.spare.pop_back();
    buf.clear();
  }
  sockdetail::append_frame(buf, opt_.rank, sockdetail::kEpochBeaconDst, payload,
                           sizeof(payload));
  p.queued.fetch_add(buf.size(), std::memory_order_relaxed);
  p.out.push_back(std::move(buf));
}

SocketBackend::~SocketBackend() { stop(); }

NodeId SocketBackend::add_node(Actor* actor, DcId dc, ServiceFn service,
                               NodeId colocate_with) {
  // Record ownership FIRST: the wrapped backend consults the router for the
  // id being assigned (worker placement skips remote nodes), so the dc map
  // must already cover it.
  node_dc_.push_back(dc);
  const NodeId node = tb_.add_node(actor, dc, std::move(service), colocate_with);
  PARIS_CHECK(node + 1 == node_dc_.size());
  return node;
}

bool SocketBackend::forward(NodeId from, NodeId to,
                            const std::vector<std::uint8_t>& bytes) {
  // The wire frame carries the true sender id: the protocol layer replies
  // to `from`, and the reliable layer keys its per-channel seq/dedup state
  // on it — ids agree across processes because registration order does.
  const std::uint32_t owner = owner_of(node_dc_[to]);
  PARIS_DCHECK(owner != opt_.rank);
  Peer& p = *peers_[owner];
  const std::uint64_t flen = sockdetail::kFrameHeader + 8 + bytes.size();
  bool poke = false;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (!p.alive) {
      stats_.dropped_dead.fetch_add(1, std::memory_order_relaxed);
      return true;  // consumed: link down, the reliable layer (if any) re-covers
    }
    if (p.queued.load(std::memory_order_relaxed) + flen > opt_.outbound_budget) {
      return false;  // ring full: the sender parks the envelope (backpressure)
    }
    std::vector<std::uint8_t> buf;
    if (!p.spare.empty()) {
      buf = std::move(p.spare.back());
      p.spare.pop_back();
      buf.clear();
    }
    sockdetail::append_frame(buf, from, to, bytes.data(), bytes.size());
    p.out.push_back(std::move(buf));
    poke = p.queued.fetch_add(flen, std::memory_order_relaxed) == 0;
  }
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  if (poke) wake();
  return true;
}

void SocketBackend::wake() {
  // One armed wake at a time: the first sender after a pump drain pays the
  // pipe write; everyone else sees the flag and skips the syscall, so a
  // flood of senders can neither fill the pipe nor lose a wakeup (the pump
  // clears the flag BEFORE rescanning the peers — any frame enqueued after
  // the clear is seen by that rescan, any frame enqueued before it is
  // covered by the wake being drained).
  if (wake_armed_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint8_t b = 1;
  (void)!write(wake_wr_, &b, 1);  // nonblocking; one byte per armed wake
}

void SocketBackend::start() {
  PARIS_CHECK_MSG(!stopped_, "socket backend restarted after stop(); runs are one-shot");
  if (started_) return;
  started_ = true;

  int pipefd[2];
  PARIS_CHECK(pipe(pipefd) == 0);
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  // Listen socket: rank r binds its own endpoint from the host list, so a
  // multi-homed box (or CI's distinct loopback IPs) binds the exact address
  // peers will dial.
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  PARIS_CHECK(listen_fd_ >= 0);
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::string rerr;
  PARIS_CHECK_MSG(resolve_ipv4(opt_.hosts[opt_.rank], &addr, &rerr),
                  ("socket backend: cannot resolve own listen endpoint: " + rerr).c_str());
  PARIS_CHECK_MSG(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                  "socket backend: bind failed (port in use?)");
  PARIS_CHECK(listen(listen_fd_, 64) == 0);

  const std::uint64_t deadline_us =
      tb_.now_us() + opt_.connect_timeout_ms * 1000;

  // Dial every rank below ours (they listen first in launch order, but a
  // racing start is fine: retry until the deadline).
  for (std::uint32_t r = 0; r < opt_.rank; ++r) {
    PARIS_CHECK_MSG(dial_peer(r, deadline_us),
                    "socket backend: could not reach a lower-ranked peer");
  }

  // Accept every rank above ours; the hello names the dialer.
  std::uint32_t missing = opt_.nprocs - 1 - opt_.rank;
  while (missing > 0) {
    PARIS_CHECK_MSG(tb_.now_us() < deadline_us,
                    "socket backend: timed out waiting for higher-ranked peers");
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (poll(&pfd, 1, kPollSliceMs) <= 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Deadline-bounded hello read: a stray connector that sends fewer than
    // kHelloSize bytes and stalls (port scanner, a killed child of another
    // run) must not hang mesh setup past connect_timeout_ms.
    set_nonblocking(fd);
    std::uint8_t hello[sockdetail::kHelloSize];
    std::size_t got = 0;
    while (got < sizeof(hello) && tb_.now_us() < deadline_us) {
      pollfd hp{fd, POLLIN, 0};
      if (poll(&hp, 1, kPollSliceMs) <= 0) continue;
      const ssize_t n = read(fd, hello + got, sizeof(hello) - got);
      if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) break;
      if (n > 0) got += static_cast<std::size_t>(n);
    }
    std::uint32_t rank;
    std::uint64_t token;
    std::uint32_t epoch;
    std::uint32_t view;
    if (got != sizeof(hello) || !parse_hello(hello, rank, token, epoch, view) ||
        token != opt_.mesh_token || rank <= opt_.rank || rank >= opt_.nprocs ||
        peers_[rank]->alive) {
      close(fd);  // stranger (e.g. a concurrent run on our port range)
      continue;
    }
    if (!note_epoch(rank, epoch)) {  // a zombie old incarnation dialed in
      stats_.fenced_stale_epoch.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    note_view(rank, view);
    set_nonblocking(fd);
    set_nodelay(fd);
    Peer& p = *peers_[rank];
    {
      std::lock_guard<std::mutex> lk(p.mu);
      p.fd = fd;
      p.alive = true;
    }
    queue_beacon(p);  // the dialer learns OUR epoch from the first beacon
    --missing;
  }

  set_nonblocking(listen_fd_);

  io_running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_main(); });
  tb_.start();
}

bool SocketBackend::dial_peer(std::uint32_t r, std::uint64_t deadline_us) {
  sockaddr_in addr;
  std::string rerr;
  PARIS_CHECK_MSG(resolve_ipv4(opt_.hosts[r], &addr, &rerr),
                  ("socket backend: cannot resolve peer endpoint: " + rerr).c_str());
  while (true) {  // always at least one attempt (redial passes a past deadline)
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    PARIS_CHECK(fd >= 0);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      std::uint8_t hello[sockdetail::kHelloSize];
      make_hello(hello, opt_.rank, opt_.mesh_token, opt_.epoch,
                 peer_views_[opt_.rank].load(std::memory_order_acquire));
      if (write(fd, hello, sizeof(hello)) != sizeof(hello)) {
        close(fd);
        return false;
      }
      set_nonblocking(fd);
      set_nodelay(fd);
      Peer& p = *peers_[r];
      {
        std::lock_guard<std::mutex> lk(p.mu);
        p.fd = fd;
        p.alive = true;
        p.redial_tries = 0;
        p.redial_backoff_us = 0;
        p.redial_gave_up = false;
      }
      queue_beacon(p);  // lease heartbeat; the hello already carried the epoch
      return true;
    }
    close(fd);
    if (tb_.now_us() >= deadline_us) return false;
    // Peer not listening yet (launch skew): back off briefly and retry.
    usleep(50'000);
  }
}

void SocketBackend::run_for(std::uint64_t us) {
  start();
  tb_.run_for(us);
}

void SocketBackend::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Quiesce the workers first (no new forwards), then let the pump drain
  // what is already buffered — bounded, so a dead peer cannot hang stop().
  tb_.stop();
  if (io_thread_.joinable()) {
    flush_and_exit_.store(true, std::memory_order_release);
    wake();
    io_thread_.join();
  }
  io_running_.store(false, std::memory_order_release);
  for (auto& p : peers_) {
    if (p->fd >= 0) close(p->fd);
    p->fd = -1;
    p->alive = false;
  }
  for (auto& pa : pending_) close(pa.fd);
  pending_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
  listen_fd_ = wake_rd_ = wake_wr_ = -1;
}

void SocketBackend::mark_dead_locked(Peer& p) {
  if (p.fd >= 0) close(p.fd);
  p.fd = -1;
  p.alive = false;
  // A TCP stream died mid-frame: both the half-read input and the
  // half-written output are unusable. The reliable layer retransmits over
  // the replacement connection; without it this is honest message loss.
  p.in.reset();
  p.out.clear();
  p.drain.clear();
  p.dcur.reset();
  p.queued.store(0, std::memory_order_relaxed);
  // Fresh dead episode: quick first retry, then exponential backoff.
  p.redial_tries = 0;
  p.redial_backoff_us = kRedialBaseUs;
  p.redial_gave_up = false;
  p.next_redial_us = tb_.now_us() + kRedialBaseUs;
}

void SocketBackend::mark_dead(Peer& p) {
  std::lock_guard<std::mutex> lk(p.mu);
  mark_dead_locked(p);
}

bool SocketBackend::process_inbound(Peer& p, std::size_t bytes_read) {
  stats_.bytes_in.fetch_add(bytes_read, std::memory_order_relaxed);
  sockdetail::FrameView f;
  while (p.in.next_view(f)) {  // zero-copy: straight into the envelope
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (f.to == sockdetail::kEpochBeaconDst) {
      // Pump-level epoch lease. A beacon from a STALE incarnation means
      // a zombie half of an old process still owns this connection:
      // fence the whole link before it can touch reliable windows.
      if (f.len != sockdetail::kBeaconBytes) {
        stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::uint32_t brank, bepoch, bview;
      std::memcpy(&brank, f.data, 4);
      std::memcpy(&bepoch, f.data + 4, 4);
      std::memcpy(&bview, f.data + 8, 4);
      if (brank >= opt_.nprocs || brank == opt_.rank || !note_epoch(brank, bepoch)) {
        stats_.fenced_stale_epoch.fetch_add(1, std::memory_order_relaxed);
        return false;  // caller tears the connection down
      }
      note_view(brank, bview);
      continue;
    }
    // The sender knows our node ids (identical registration order), so
    // anything out of range or non-local is a peer bug; drop it rather
    // than corrupt the mailboxes. Payload bytes crossed a process
    // boundary: validate before handing them to the strict (aborting)
    // in-process decoder — corruption is counted and dropped, never a
    // crash (the reliable layer re-covers dropped frames).
    if (f.to < node_dc_.size() && f.from < node_dc_.size() && is_local(f.to)) {
      if (!wire::validate_encoded_message(f.data, f.len)) {
        stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      tb_.inject_encoded(f.from, f.to, f.data, f.len);
    }
  }
  if (!p.in.ok()) return false;  // corrupt length prefix mid-stream
  if (p.in.buffered() != 0) {
    stats_.partial_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void SocketBackend::handle_readable(Peer& p) {
  using sockdetail::kReadChunk;
  while (true) {
    // Read straight into the reassembler's tail: one syscall drains as many
    // frames as the kernel has buffered, with no bounce-buffer memcpy.
    std::uint8_t* dst = p.in.reserve(kReadChunk);
    const ssize_t n = recv(p.fd, dst, kReadChunk, 0);
    if (n > 0) {
      stats_.read_syscalls.fetch_add(1, std::memory_order_relaxed);
      p.in.commit(static_cast<std::size_t>(n));
      if (!process_inbound(p, static_cast<std::size_t>(n))) {
        mark_dead(p);
        return;
      }
      if (static_cast<std::size_t>(n) < kReadChunk) return;  // drained
      continue;
    }
    if (n == 0) {  // orderly EOF: peer stopped or restarted
      mark_dead(p);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    mark_dead(p);
    return;
  }
}

bool SocketBackend::refill_drain(Peer& p) {
  if (!p.dcur.done(p.drain)) return true;  // resume the current batch first
  // Drain fully written: recycle its buffers and SWAP the producers' ring in
  // under the lock; the iovec flush itself runs with no lock held, so a slow
  // syscall burst never stalls a forwarding worker.
  std::lock_guard<std::mutex> lk(p.mu);
  for (auto& b : p.drain) {
    if (p.spare.size() < kSpareCap) {
      b.clear();
      p.spare.push_back(std::move(b));
    }
  }
  p.drain.clear();
  p.dcur.reset();
  if (p.out.empty()) return false;
  std::swap(p.out, p.drain);
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SocketBackend::handle_writable(Peer& p) {
  struct iovec iov[sockdetail::kMaxWritevIovecs];
  while (true) {
    if (!refill_drain(p)) return;
    const std::size_t cnt = p.dcur.build(p.drain, iov, sockdetail::kMaxWritevIovecs,
                                         sockdetail::kMaxWritevBytes);
    if (cnt == 0) return;
    std::size_t total = 0;
    for (std::size_t i = 0; i < cnt; ++i) total += iov[i].iov_len;
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    // sendmsg == writev + MSG_NOSIGNAL (a raw writev to a dead peer would
    // raise SIGPIPE); one syscall flushes up to kMaxWritevIovecs frames.
    const ssize_t n = sendmsg(p.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.write_syscalls.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      p.dcur.advance(p.drain, static_cast<std::size_t>(n));
      p.queued.fetch_sub(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      if (static_cast<std::size_t>(n) < total) {
        // Kernel buffer filled mid-chain: resume at the cursor on POLLOUT.
        stats_.short_writes.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      stats_.short_writes.fetch_add(1, std::memory_order_relaxed);
      return;  // kernel buffer full: resume on the next POLLOUT
    }
    mark_dead(p);  // EPIPE/ECONNRESET etc.
    return;
  }
}

void SocketBackend::accept_pending() {
  // New connections (mid-run reconnects from a restarted/redialing peer).
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    set_nonblocking(fd);
    set_nodelay(fd);
    pending_.push_back(PendingAccept{fd, {}, 0});
  }
  // Progress hellos; attach completed ones.
  for (std::size_t i = 0; i < pending_.size();) {
    PendingAccept& pa = pending_[i];
    const ssize_t n = read(pa.fd, pa.hello + pa.got, sizeof(pa.hello) - pa.got);
    if (n > 0) pa.got += static_cast<std::size_t>(n);
    const bool err = (n == 0) || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                                  errno != EINTR);
    if (pa.got == sizeof(pa.hello)) {
      std::uint32_t rank;
      std::uint64_t token;
      std::uint32_t epoch;
      std::uint32_t view;
      if (parse_hello(pa.hello, rank, token, epoch, view) && token == opt_.mesh_token &&
          rank < opt_.nprocs && rank != opt_.rank) {
        if (!note_epoch(rank, epoch)) {
          // A dead incarnation of this rank redialed in: fence it.
          stats_.fenced_stale_epoch.fetch_add(1, std::memory_order_relaxed);
          close(pa.fd);
        } else {
          note_view(rank, view);
          Peer& p = *peers_[rank];
          {
            std::lock_guard<std::mutex> lk(p.mu);
            if (p.fd >= 0) close(p.fd);  // replaced: the peer restarted its side
            p.fd = pa.fd;
            p.alive = true;
            p.in.reset();
            p.out.clear();
            p.drain.clear();
            p.dcur.reset();
            p.queued.store(0, std::memory_order_relaxed);
            p.redial_tries = 0;
            p.redial_backoff_us = 0;
            p.redial_gave_up = false;
          }
          queue_beacon(p);
          stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        close(pa.fd);  // stranger or token mismatch: not our mesh
      }
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (err) {
      close(pa.fd);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

void SocketBackend::periodic(std::uint64_t now) {
  // Redial dead peers we originally dialed; the accept side of a dead
  // link just waits for the peer's redial. Backoff doubles per failed
  // attempt up to the cap; the jitter is a pure function of
  // (seed, rank, attempt) so a run replays the same schedule.
  for (std::uint32_t r = 0; r < opt_.nprocs; ++r) {
    Peer& p = *peers_[r];
    if (p.alive || !p.we_dial || p.redial_gave_up || now < p.next_redial_us) {
      continue;
    }
    stats_.redial_attempts.fetch_add(1, std::memory_order_relaxed);
    if (dial_peer(r, now + 1)) {  // single quick attempt per period
      stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (++p.redial_tries >= kRedialMaxTries) {
      p.redial_gave_up = true;  // a respawned peer revives us by dialing in
      stats_.redial_giveups.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t jitter =
        splitmix64(opt_.seed ^ (std::uint64_t{r} << 32) ^ p.redial_tries) %
        (p.redial_backoff_us / 4 + 1);
    p.next_redial_us = now + p.redial_backoff_us + jitter;
    p.redial_backoff_us = std::min(p.redial_backoff_us * 2, kRedialCapUs);
  }
  // Epoch lease heartbeat: every live connection re-announces our
  // incarnation so a peer that missed the hello (or a half-open zombie)
  // converges on the newest epoch within a beacon period.
  if (now >= next_beacon_us_) {
    for (auto& up : peers_) {
      if (up->alive) queue_beacon(*up);
    }
    next_beacon_us_ = now + kBeaconPeriodUs;
  }
}

void SocketBackend::io_main() {
  std::vector<pollfd> pfds;
  std::vector<Peer*> order;
  std::uint64_t flush_deadline_us = 0;

  while (true) {
    const bool flushing = flush_and_exit_.load(std::memory_order_acquire);
    if (flushing && flush_deadline_us == 0) {
      flush_deadline_us = tb_.now_us() + kFlushBudgetUs;
    }

    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{wake_rd_, POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    bool any_out = false;
    for (auto& up : peers_) {
      Peer& p = *up;
      if (!p.alive || p.fd < 0) continue;
      if (p.stalled.load(std::memory_order_acquire)) continue;  // debug hook
      short ev = POLLIN;
      if (out_pending(p)) {
        ev |= POLLOUT;
        any_out = true;
      }
      pfds.push_back(pollfd{p.fd, ev, 0});
      order.push_back(&p);
    }
    for (const auto& pa : pending_) pfds.push_back(pollfd{pa.fd, POLLIN, 0});

    if (flushing && (!any_out || tb_.now_us() >= flush_deadline_us)) break;

    poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollSliceMs);

    if (pfds[0].revents & POLLIN) {  // drain the wake pipe, then re-arm
      std::uint8_t sink[256];
      while (read(wake_rd_, sink, sizeof(sink)) > 0) {
      }
    }
    // Disarm BEFORE scanning: a sender that skips its pipe write because the
    // flag was still set must have enqueued before this store, and the scan
    // below sees its frame. (Clearing after the scan would lose it.)
    wake_armed_.store(false, std::memory_order_release);

    if (pfds[1].revents & POLLIN) accept_pending();
    if (!pending_.empty()) accept_pending();  // progress partial hellos

    for (std::size_t i = 0; i < order.size(); ++i) {
      Peer& p = *order[i];
      const short rev = pfds[2 + i].revents;
      if (p.alive && (rev & (POLLIN | POLLHUP | POLLERR))) handle_readable(p);
      if (p.alive && p.fd >= 0) handle_writable(p);  // opportunistic drain
    }

    if (!flushing) periodic(tb_.now_us());
  }
}

SocketStats SocketBackend::stats() const {
  SocketStats s;
  s.frames_out = stats_.frames_out.load(std::memory_order_relaxed);
  s.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.partial_reads = stats_.partial_reads.load(std::memory_order_relaxed);
  s.short_writes = stats_.short_writes.load(std::memory_order_relaxed);
  s.reconnects = stats_.reconnects.load(std::memory_order_relaxed);
  s.dropped_dead = stats_.dropped_dead.load(std::memory_order_relaxed);
  s.redial_attempts = stats_.redial_attempts.load(std::memory_order_relaxed);
  s.redial_giveups = stats_.redial_giveups.load(std::memory_order_relaxed);
  s.fenced_stale_epoch = stats_.fenced_stale_epoch.load(std::memory_order_relaxed);
  s.malformed_frames = stats_.malformed_frames.load(std::memory_order_relaxed);
  s.read_syscalls = stats_.read_syscalls.load(std::memory_order_relaxed);
  s.write_syscalls = stats_.write_syscalls.load(std::memory_order_relaxed);
  s.flushes = stats_.flushes.load(std::memory_order_relaxed);
  // Backpressure is observed where it bites: the ThreadBackend's router
  // park path (the sender side of the seam).
  s.backpressure_stalls = tb_.router_parks();
  s.backpressure_drops = tb_.router_park_drops();
  return s;
}

void SocketBackend::debug_kill_connection(std::uint32_t peer_rank) {
  Peer& p = *peers_[peer_rank];
  std::lock_guard<std::mutex> lk(p.mu);
  if (p.fd >= 0) shutdown(p.fd, SHUT_RDWR);  // pump sees EOF and tears down
}

void SocketBackend::debug_stall_peer(std::uint32_t peer_rank, bool stalled) {
  peers_[peer_rank]->stalled.store(stalled, std::memory_order_release);
  if (started_) wake();  // unstall promptly
}

std::uint64_t SocketBackend::debug_outbound_queued(std::uint32_t peer_rank) const {
  return peers_[peer_rank]->queued.load(std::memory_order_relaxed);
}

}  // namespace paris::runtime
