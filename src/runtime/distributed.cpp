#include "runtime/distributed.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "dvm/codec.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/digest.hpp"

namespace tulkun::runtime {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// DeviceProcess
// ---------------------------------------------------------------------------

DeviceProcess::DeviceProcess(net::Transport& transport,
                             const topo::Topology& topo, WorldBuilder builder,
                             Config cfg)
    : transport_(&transport),
      topo_(&topo),
      builder_(std::move(builder)),
      cfg_(cfg),
      tree_(cfg.n_device_procs, cfg.fanout) {
  if (cfg_.incarnation > 0) {
    // A reborn process adopts its epoch from the coordinator's Catchup;
    // until then every data frame parks (pre-death stragglers from the old
    // life would otherwise corrupt the fresh state).
    epoch_ = kEpochUnset;
  }
}

void DeviceProcess::relay_to_children(const std::vector<std::uint8_t>& frame) {
  for (const net::PeerId c : tree_.children(cfg_.rank)) {
    transport_->send(c, frame);
  }
}

DistProbeAck DeviceProcess::make_ack_locked(std::uint32_t wave,
                                            bool with_pairs) {
  DistProbeAck ack;
  ack.epoch = epoch_;
  ack.wave = wave;
  ack.sent = sent_;
  ack.received = received_;
  ack.idle = queue_.empty() && !busy_;
  ack.phase_started = completed_phase_ >= 0;
  ack.phase =
      completed_phase_ >= 0 ? static_cast<std::uint32_t>(completed_phase_) : 0;
  if (with_pairs) {
    std::map<std::uint32_t, DistPairCount> pairs;
    for (const auto& [peer, n] : sent_by_) pairs[peer].sent_to = n;
    for (const auto& [peer, n] : recv_by_) pairs[peer].recv_from = n;
    for (auto& [peer, p] : pairs) {
      p.peer = peer;
      ack.pairs.push_back(p);
    }
  }
  return ack;
}

void DeviceProcess::handle_probe(const DistProbe& probe,
                                 const std::vector<std::uint8_t>& frame) {
  if (probe.direct) {
    // Recovery drains bypass the tree entirely: every rank answers the
    // root itself, with its per-peer counter map, because a dead interior
    // rank would cut its subtree off from relayed waves.
    DistProbeAck ack;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack = make_ack_locked(probe.wave, /*with_pairs=*/true);
    }
    transport_->send(kCoordinatorRank, encode_dist(ack));
    return;
  }
  const auto children = tree_.children(cfg_.rank);
  if (children.empty()) {
    // Leaf (or star): answer the parent inline so probe latency is
    // independent of job length; the snapshot is consistent because every
    // counted quantity sits under mu_.
    DistProbeAck ack;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack = make_ack_locked(probe.wave, /*with_pairs=*/false);
    }
    transport_->send(tree_.parent(cfg_.rank), encode_dist(ack));
    return;
  }
  // Interior: start collecting this wave's child acks, then relay the
  // probe downward. The merged ack (with a fresh own snapshot) flushes to
  // the parent once the whole subtree answered.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (probe.epoch != probe_epoch_ || probe.wave != probe_wave_) {
      probe_epoch_ = probe.epoch;
      probe_wave_ = probe.wave;
      probe_acks_.clear();
      probe_flushed_ = false;
    }
  }
  relay_to_children(frame);
}

void DeviceProcess::handle_probe_ack(net::PeerId from,
                                     const DistProbeAck& ack) {
  std::vector<std::uint8_t> flush;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.epoch != epoch_ || ack.epoch != probe_epoch_ ||
        ack.wave != probe_wave_) {
      return;  // stale wave or epoch transition
    }
    probe_acks_[from] = ack;
    std::size_t covered = 0;
    for (const auto& [child, a] : probe_acks_) covered += a.ranks;
    if (probe_flushed_ || covered + 1 < tree_.subtree_size(cfg_.rank)) return;
    DistProbeAck merged = make_ack_locked(probe_wave_, /*with_pairs=*/false);
    for (const auto& [child, a] : probe_acks_) merge_probe_ack(merged, a);
    probe_flushed_ = true;
    flush = encode_dist(merged);
  }
  transport_->send(tree_.parent(cfg_.rank), flush);
}

void DeviceProcess::on_frame(net::PeerId from,
                             std::vector<std::uint8_t> frame) {
  DistMsg msg;
  try {
    msg = decode_dist(frame);
  } catch (const Error&) {
    return;  // transport framing already vetted; drop malformed payloads
  }
  if (const auto* probe = std::get_if<DistProbe>(&msg)) {
    handle_probe(*probe, frame);
    return;
  }
  if (const auto* ack = std::get_if<DistProbeAck>(&msg)) {
    handle_probe_ack(from, *ack);
    return;
  }
  // Interior ranks relay phase control downward before their own worker
  // even sees it, so relay latency is independent of job length. Catchup,
  // Done, snapshots and data frames are addressed point-to-point, and a
  // direct collect already reached every rank from the root.
  const auto* col = std::get_if<DistCollect>(&msg);
  if (std::get_if<DistBegin>(&msg) != nullptr ||
      (col != nullptr && !col->direct)) {
    relay_to_children(frame);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(from, std::move(msg));
  }
  cv_.notify_one();
}

void DeviceProcess::build_world() {
  // The world (plans, initial tables, update steps) is a deterministic
  // function of the dataset and identical in every epoch; planning it is
  // the expensive part of recovery. Build it once; a rank reborn again by
  // a restarted catch-up rebuilds only its per-device verifier state.
  if (!world_built_) {
    world_ = builder_();
    world_built_ = true;
  }
  if (devices_built_) world_rebuilds_ += 1;
  devices_.clear();
  step_rule_ids_.assign(world_.steps.size(), 0);
  local_step_rules_.assign(world_.steps.size(), fib::Rule{});
  {
    // Pre-localize everything phase execution will touch (initial FIBs,
    // invariants, insert rules) while holding the shared world's localize
    // lock: concurrent in-process ranks sharing one world must not race on
    // its BDD manager, and after this block they never read it again.
    std::unique_lock<std::mutex> shared_lock;
    if (world_.localize_mu) {
      shared_lock = std::unique_lock<std::mutex>(*world_.localize_mu);
    }
    for (DeviceId d = 0; d < topo_->device_count(); ++d) {
      if (owner_rank(d, cfg_.n_device_procs) != cfg_.rank) continue;
      OwnedDevice od;
      od.dev = d;
      od.space = std::make_unique<packet::PacketSpace>();
      od.verifier = std::make_unique<verifier::OnDeviceVerifier>(
          d, *topo_, *od.space, cfg_.engine);
      for (const auto& plan : world_.plans) {
        planner::InvariantPlan local = plan;
        local.inv = localize_invariant(plan.inv, *od.space);
        od.verifier->install(local);
      }
      od.local_init = localize_fib(world_.tables[d], *od.space);
      devices_.push_back(std::move(od));
    }
    for (std::size_t i = 0; i < world_.steps.size(); ++i) {
      const auto& step = world_.steps[i];
      if (owner_rank(step.update.device, cfg_.n_device_procs) != cfg_.rank) {
        continue;
      }
      if (step.update.kind == fib::FibUpdate::Kind::Insert) {
        OwnedDevice* od = owned(step.update.device);
        local_step_rules_[i] = localize_rule(step.update.rule, *od->space);
      }
    }
  }
  devices_built_ = true;
  obs::Registry::instance().counter("dist_world_builds").add(1);
}

DeviceProcess::OwnedDevice* DeviceProcess::owned(DeviceId dev) {
  for (auto& od : devices_) {
    if (od.dev == dev) return &od;
  }
  return nullptr;
}

std::vector<std::uint32_t> DeviceProcess::devices_of(net::PeerId rank) const {
  std::vector<std::uint32_t> out;
  for (DeviceId d = 0; d < topo_->device_count(); ++d) {
    if (owner_rank(d, cfg_.n_device_procs) == rank) {
      out.push_back(static_cast<std::uint32_t>(d));
    }
  }
  return out;
}

bool DeviceProcess::is_reborn_peer(net::PeerId r) const {
  return std::find(reborn_set_.begin(), reborn_set_.end(), r) !=
         reborn_set_.end();
}

void DeviceProcess::run() {
  net::Transport::Handlers handlers;
  handlers.on_frame = [this](net::PeerId from, std::vector<std::uint8_t> f) {
    on_frame(from, std::move(f));
  };
  transport_->start(std::move(handlers));
  transport_->send(kCoordinatorRank,
                   encode_dist(DistHello{cfg_.rank, cfg_.incarnation}));
  build_world();
  while (!done_) {
    net::PeerId from = 0;
    DistMsg msg;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty(); });
      from = queue_.front().first;
      msg = std::move(queue_.front().second);
      queue_.pop_front();
      busy_ = true;
    }
    {
      // Inproc runs share threads between logical ranks, so records adopt
      // the rank per processed message rather than per process.
      obs::RankScope rank_scope(cfg_.rank);
      process(from, msg);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
  }
}

void DeviceProcess::process(net::PeerId from, DistMsg& msg) {
  if (auto* begin = std::get_if<DistBegin>(&msg)) {
    run_phase(*begin);
  } else if (auto* data = std::get_if<DistData>(&msg)) {
    handle_data(from, *data);
  } else if (const auto* cu = std::get_if<DistCatchup>(&msg)) {
    handle_catchup(*cu);
  } else if (const auto* snap = std::get_if<DistSnapshot>(&msg)) {
    handle_snapshot(*snap);
  } else if (const auto* collect = std::get_if<DistCollect>(&msg)) {
    handle_collect(*collect);
  } else if (auto* rollup = std::get_if<DistRollup>(&msg)) {
    handle_rollup(*rollup);
  } else if (std::get_if<DistDone>(&msg) != nullptr) {
    done_ = true;
  }
  // Hello/Probe/ProbeAck never reach the worker queue.
}

void DeviceProcess::run_phase(const DistBegin& begin) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (begin.epoch != epoch_) {
      // Ahead of our Catchup (relayed Begins can overtake the direct
      // Catchup): hold it. Behind: stale Begin from before a recovery.
      if (epoch_ == kEpochUnset || begin.epoch > epoch_) {
        parked_.emplace_back(kCoordinatorRank, begin);
      }
      return;
    }
  }
  if (cfg_.kill_at_phase == begin.phase && cfg_.kill_after_frames == 0 &&
      cfg_.incarnation == 0) {
    // Chaos hook: die exactly like a crashed switch process — no cleanup,
    // no goodbye. The supervisor re-forks us with incarnation 1.
    _exit(43);
  }
  // Adopt the coordinator's context: device-side spans (and everything
  // route() stamps onto outgoing Data) link under its phase span.
  obs::ContextScope trace_ctx({begin.trace_id, begin.parent_span});
  TLK_SPAN_ARG("dist.device_phase", begin.phase);
  // Before our own work, so a reborn rank gets this rank's frames in the
  // order they were first sent.
  resend_logged(begin.phase);
  apply_phase(begin.phase);
  std::lock_guard<std::mutex> lock(mu_);
  completed_phase_ = begin.phase;
}

void DeviceProcess::resend_logged(std::uint32_t phase) {
  // The interrupted phase itself re-runs from scratch (roll_back dropped
  // its logged frames), so only the phases before it are resent.
  if (phase >= catchup_phase_) return;
  for (const auto& [b, limit] : resend_limit_) {
    const auto& log = send_log_[b];
    for (std::size_t i = 0; i < limit; ++i) {
      if (log[i].phase != phase) continue;
      DistData d = log[i];
      {
        std::lock_guard<std::mutex> lock(mu_);
        d.epoch = epoch_;
        sent_ += 1;
        sent_by_[b] += 1;
      }
      transport_->send(b, encode_dist(DistMsg(std::move(d))));
    }
  }
}

void DeviceProcess::apply_phase(std::uint32_t phase) {
  if (applied_phases_.contains(phase)) return;  // idempotent re-Begin
  applied_phases_.insert(phase);
  if (phase == 0) {
    for (auto& od : devices_) {
      save_undo(od, phase);
      auto outs = od.verifier->initialize(od.local_init);
      local_.jobs += 1;
      route(std::move(outs), phase);
    }
    return;
  }
  const std::size_t idx = phase - 1;
  if (idx >= world_.steps.size()) return;
  const auto& step = world_.steps[idx];
  if (owner_rank(step.update.device, cfg_.n_device_procs) != cfg_.rank) return;
  OwnedDevice* od = owned(step.update.device);
  save_undo(*od, phase);
  fib::FibUpdate upd = step.update;
  if (upd.kind == fib::FibUpdate::Kind::Insert) {
    upd.rule = local_step_rules_[idx];
  }
  if (step.erase_of >= 0) {
    upd.rule_id = step_rule_ids_[static_cast<std::size_t>(step.erase_of)];
  }
  auto outs = od->verifier->apply_rule_update(upd);
  step_rule_ids_[idx] = upd.rule_id;
  local_.jobs += 1;
  route(std::move(outs), phase);
}

void DeviceProcess::save_undo(OwnedDevice& od, std::uint32_t phase) {
  // Phases run one at a time, globally: work of a newer phase means every
  // older one terminated, so its undo points can go.
  if (phase != undo_phase_) {
    undo_devices_.clear();
    undo_phase_ = phase;
  }
  if (undo_devices_.insert(od.dev).second) od.verifier->mark_undo_point();
}

void DeviceProcess::roll_back(std::uint32_t phase) {
  if (undo_phase_ == phase) {
    for (const DeviceId dev : undo_devices_) {
      owned(dev)->verifier->restore_undo_point();
    }
  }
  undo_devices_.clear();
  undo_phase_.reset();
  applied_phases_.erase(phase);
  // Phases only grow along a log, so the interrupted phase is its tail.
  for (auto& [peer, log] : send_log_) {
    while (!log.empty() && log.back().phase >= phase) log.pop_back();
  }
}

void DeviceProcess::revive_parked(std::uint32_t epoch) {
  // Revive messages that raced ahead of this recovery; drop older ones.
  std::vector<std::pair<net::PeerId, DistMsg>> keep;
  std::vector<std::pair<net::PeerId, DistMsg>> revive;
  for (auto& [src, m] : parked_) {
    const auto* data = std::get_if<DistData>(&m);
    const std::uint32_t e =
        data != nullptr ? data->epoch : std::get<DistBegin>(m).epoch;
    if (e == epoch) {
      revive.emplace_back(src, std::move(m));
    } else if (e > epoch) {
      keep.emplace_back(src, std::move(m));
    }
  }
  parked_ = std::move(keep);
  if (!revive.empty()) {
    // Revived frames predate everything currently queued (they were
    // popped and parked before this recovery was even processed, and the
    // transport keeps enqueuing while it runs). Re-applying them at the
    // back would order a peer's older announcements after its newer ones;
    // the front keeps per-source FIFO intact.
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(revive.begin()),
                  std::make_move_iterator(revive.end()));
  }
}

void DeviceProcess::handle_catchup(const DistCatchup& cu) {
  TLK_SPAN_ARG("dist.catchup", cu.next_phase);
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_ = cu.epoch;
    sent_ = 0;
    received_ = 0;
    sent_by_.clear();
    recv_by_.clear();
  }
  reborn_set_ = cu.reborn;
  catchup_phase_ = cu.next_phase;
  resend_limit_.clear();
  if (is_reborn_peer(cfg_.rank)) {
    if (!applied_phases_.empty()) {
      // A previous catch-up attempt already replayed into this process
      // (another rank died mid-recovery); its state mixes traffic from the
      // aborted round, so rebuild the verifiers — the world itself stays
      // cached — and replay again from scratch.
      build_world();
      applied_phases_.clear();
    }
    undo_devices_.clear();
    undo_phase_.reset();
    send_log_.clear();
    baseline_.clear();
    mirror_.clear();
    mirror_applied_seq_ = kNoCollectSeq;
    own_seq_ = kNoCollectSeq;
    own_entry_.reset();
    snapshot_rows_adopted_ = 0;
    if (pending_snapshot_ && pending_snapshot_->epoch == cu.epoch) {
      DistSnapshot snap = std::move(*pending_snapshot_);
      pending_snapshot_.reset();
      handle_snapshot(snap);
    }
  } else {
    // Survivor: keep the verifier state of every finished phase, but undo
    // the interrupted one — the dead life may have processed part of it,
    // and its frames this rank already took (or their cascades) would
    // otherwise be applied twice once the reborn rank redoes them. The
    // whole phase re-runs on every rank after the replay. Everything
    // logged before it toward a reborn rank went to its dead life;
    // resend_logged() replays it phase by phase as the coordinator
    // re-Begins the phases. Also serve a digest snapshot to any reborn
    // rank whose nearest live ancestor we are.
    roll_back(cu.next_phase);
    for (const std::uint32_t b : cu.reborn) {
      resend_limit_[b] = send_log_[b].size();
    }
    for (const std::uint32_t b : cu.reborn) {
      if (tree_.live_ancestor(b, cu.reborn) != cfg_.rank) continue;
      std::vector<std::uint32_t> devs;
      for (const net::PeerId r : tree_.subtree(b)) {
        const auto owned_devs = devices_of(r);
        devs.insert(devs.end(), owned_devs.begin(), owned_devs.end());
      }
      DistSnapshot snap;
      snap.epoch = cu.epoch;
      snap.collect_seq = mirror_applied_seq_;
      snap.rows = mirror_.full_for(devs);
      transport_->send(b, encode_dist(DistMsg(std::move(snap))));
    }
  }
  revive_parked(cu.epoch);
}

void DeviceProcess::handle_snapshot(const DistSnapshot& snap) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snap.epoch != epoch_) {
      // Raced ahead of our Catchup (it travels ancestor -> us, the
      // Catchup root -> us): hold it until the epoch is adopted.
      if (epoch_ == kEpochUnset || snap.epoch > epoch_) {
        pending_snapshot_ = snap;
      }
      return;
    }
  }
  if (own_seq_ != kNoCollectSeq) return;  // a collect round already ran
  std::uint64_t adopted = 0;
  for (const auto& d : snap.rows) {
    if (owner_rank(d.device, cfg_.n_device_procs) == cfg_.rank) {
      adopted += d.added.size();
      baseline_.apply({d});
    }
    if (!tree_.children(cfg_.rank).empty()) mirror_.apply({d});
  }
  if (!tree_.children(cfg_.rank).empty()) {
    mirror_applied_seq_ = snap.collect_seq;
  }
  snapshot_rows_adopted_ += adopted;
  obs::Registry::instance().counter("coord_snapshot_rows_adopted").add(adopted);
}

void DeviceProcess::handle_data(net::PeerId from, DistData& data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ == kEpochUnset) {
      // No epoch adopted yet (freshly reborn): park everything; the
      // Catchup revives what belongs to the new epoch and drops the rest.
      parked_.emplace_back(from, std::move(data));
      return;
    }
    if (data.epoch != epoch_) {
      // Ahead of our recovery: park until we catch up. Behind: a frame
      // from a previous life; the epoch tag exists precisely to drop it.
      if (data.epoch > epoch_) parked_.emplace_back(from, std::move(data));
      return;
    }
    received_ += 1;
    recv_by_[from] += 1;
  }
  // Adopt the sender's context so this span links back to the send site.
  obs::ContextScope trace_ctx({data.trace_id, data.parent_span});
  TLK_SPAN_ARG("dist.handle_data", data.frame.size());
  OwnedDevice* od = owned(data.dst_device);
  if (od == nullptr) return;  // misrouted frame; ignore
  save_undo(*od, data.phase);
  std::vector<dvm::Envelope> outs;
  try {
    const auto envs = dvm::decode_frame(data.frame, *od->space);
    for (const auto& env : envs) {
      auto msgs = od->verifier->on_message(env);
      outs.insert(outs.end(), std::make_move_iterator(msgs.begin()),
                  std::make_move_iterator(msgs.end()));
    }
  } catch (const dvm::CodecError&) {
    local_.transport.protocol_errors += 1;
    return;
  }
  local_.jobs += 1;
  route(std::move(outs), data.phase);
  if (cfg_.kill_after_frames > 0 && data.phase == cfg_.kill_at_phase &&
      cfg_.incarnation == 0 && ++kill_frames_seen_ == cfg_.kill_after_frames) {
    // Chaos hook: crash mid-cascade. The transport writes from its own
    // thread; give it a moment to put this frame's emissions on the wire
    // so the survivors really take part of the dead life's phase.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    _exit(43);
  }
}

void DeviceProcess::route(std::vector<dvm::Envelope> outs,
                          std::uint32_t phase) {
  if (outs.empty()) return;
  const bool replaying = is_reborn_peer(cfg_.rank) && phase < catchup_phase_;
  std::map<DeviceId, std::vector<dvm::Envelope>> by_dst;
  for (auto& env : outs) by_dst[env.dst].push_back(std::move(env));
  const obs::TraceContext ctx = obs::current_context();
  for (auto& [dst, envs] : by_dst) {
    DistData d;
    d.dst_device = dst;
    d.trace_id = ctx.trace_id;
    d.parent_span = ctx.span_id;
    d.phase = phase;
    d.frame = dvm::encode_frame(envs, &transfer_cache_);
    local_.frames += 1;
    local_.envelopes += envs.size();
    local_.frame_bytes += d.frame.size();
    local_.batch_size.add(static_cast<double>(envs.size()));
    const net::PeerId owner = owner_rank(dst, cfg_.n_device_procs);
    if (owner == cfg_.rank) {
      // Loopback: both counters move together so the global sums stay
      // balanced without special-casing local frames.
      {
        std::lock_guard<std::mutex> lock(mu_);
        d.epoch = epoch_;
        sent_ += 1;
        sent_by_[owner] += 1;
        queue_.emplace_back(cfg_.rank, DistMsg(std::move(d)));
      }
      cv_.notify_one();
      continue;
    }
    // Cross-rank: log first (the epoch is rewritten when a catch-up
    // replays the log), then deliver — unless this is a reborn rank
    // replaying a phase below the catch-up's next phase toward a survivor:
    // those phases terminated globally before the crash, so the survivor
    // processed the originals.
    send_log_[owner].push_back(d);
    if (replaying && !is_reborn_peer(owner)) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      d.epoch = epoch_;
      sent_ += 1;
      sent_by_[owner] += 1;
    }
    transport_->send(owner, encode_dist(DistMsg(std::move(d))));
  }
}

void DeviceProcess::handle_collect(const DistCollect& collect) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (collect.epoch != epoch_) return;  // stale round
  }
  if (collect.direct) {
    // Gray-aggregator fallback: answer with our own cached entry straight
    // to the root, bypassing the (possibly stalled) interior aggregator.
    // contribute_entry caches per seq, so tree and direct replies for one
    // round stay byte-identical and the root dedups them by rank.
    if (collect.seq != rollup_seq_) {
      rollup_seq_ = collect.seq;
      rollup_epoch_ = collect.epoch;
      rollup_entries_.clear();
      rollup_flushed_ = false;
    }
    contribute_entry(collect.seq);
    DistRollup r;
    {
      std::lock_guard<std::mutex> lock(mu_);
      r.epoch = epoch_;
    }
    r.seq = collect.seq;
    r.entries.push_back(rollup_entries_[cfg_.rank]);
    transport_->send(kCoordinatorRank, encode_dist(DistMsg(std::move(r))));
    return;
  }
  if (collect.seq != rollup_seq_) {
    rollup_seq_ = collect.seq;
    rollup_epoch_ = collect.epoch;
    rollup_entries_.clear();
  }
  // A re-asked round re-flushes (the previous rollup may have been lost);
  // cached entries keep the resend byte-identical.
  rollup_flushed_ = false;
  contribute_entry(collect.seq);
  maybe_flush_rollup();
}

void DeviceProcess::contribute_entry(std::uint64_t seq) {
  if (own_seq_ == seq && own_entry_) {
    rollup_entries_[cfg_.rank] = *own_entry_;
    return;
  }
  VerdictEntry e;
  e.rank = cfg_.rank;
  const std::vector<std::string> kEmpty;
  for (const auto& od : devices_) {
    auto rows = canonical_device_rows(*od.verifier);
    const auto* base = baseline_.rows_for(od.dev);
    // Deltas against the rows last shipped; a device with an empty
    // baseline (first round, or a reborn rank without a snapshot) anchors.
    auto delta = coord::diff_rows(static_cast<std::uint32_t>(od.dev),
                                  base ? *base : kEmpty, rows);
    e.violations += od.verifier->violations().size();
    e.lec_delta_seconds += od.verifier->stats().lec_delta_seconds;
    const auto totals = od.verifier->engine_totals();
    e.recompute_seconds += totals.recompute_seconds;
    e.emit_seconds += totals.emit_seconds;
    if (delta.full || !delta.added.empty() || !delta.removed.empty()) {
      e.deltas.push_back(std::move(delta));
    }
    baseline_.replace(static_cast<std::uint32_t>(od.dev), std::move(rows));
  }
  e.jobs = local_.jobs;
  e.frames = local_.frames;
  e.envelopes = local_.envelopes;
  e.frame_bytes = local_.frame_bytes;
  e.world_rebuilds = world_rebuilds_;
  e.snapshot_rows_adopted = snapshot_rows_adopted_;
  e.transport = local_.transport;
  for (const auto& [peer, m] : transport_->link_metrics()) {
    e.transport.merge(m);
  }
  if (obs::trace_enabled()) {
    obs::merge_snapshot(trace_acc_, obs::drain_snapshot());
    e.trace = obs::serialize_trace(trace_acc_);
  }
  own_seq_ = seq;
  own_entry_ = e;
  rollup_entries_[cfg_.rank] = std::move(e);
}

void DeviceProcess::maybe_flush_rollup() {
  if (rollup_seq_ == kNoCollectSeq || rollup_flushed_) return;
  if (rollup_entries_.size() < tree_.subtree_size(cfg_.rank)) return;
  const bool interior = !tree_.children(cfg_.rank).empty();
  if (interior && mirror_applied_seq_ != rollup_seq_) {
    // The subtree is complete: fold its deltas into the mirror exactly
    // once per round. The mirror tracks what the root's store will hold
    // after this round — which is what a reborn child needs served back.
    for (const auto& [rank, entry] : rollup_entries_) {
      mirror_.apply(entry.deltas);
    }
    mirror_applied_seq_ = rollup_seq_;
  }
  DistRollup r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.epoch = epoch_;
  }
  r.seq = rollup_seq_;
  for (const auto& [rank, entry] : rollup_entries_) r.entries.push_back(entry);
  rollup_flushed_ = true;
  transport_->send(tree_.parent(cfg_.rank), encode_dist(DistMsg(std::move(r))));
}

void DeviceProcess::handle_rollup(DistRollup& rollup) {
  // Collect relays through us before our children can answer, so a rollup
  // for a round we have not seen is stale by construction.
  if (rollup.seq != rollup_seq_ || rollup.epoch != rollup_epoch_) return;
  for (auto& e : rollup.entries) {
    rollup_entries_[e.rank] = std::move(e);
  }
  maybe_flush_rollup();
}

// ---------------------------------------------------------------------------
// DistCoordinator
// ---------------------------------------------------------------------------

DistCoordinator::DistCoordinator(net::Transport& transport, Config cfg)
    : transport_(&transport),
      cfg_(cfg),
      tree_(cfg.n_device_procs, cfg.fanout),
      probe_patience_s_(cfg.wait_step_s) {}

void DistCoordinator::on_frame(net::PeerId from,
                               std::vector<std::uint8_t> frame) {
  DistMsg msg;
  try {
    msg = decode_dist(frame);
  } catch (const Error&) {
    return;
  }
  if (const auto* hello = std::get_if<DistHello>(&msg)) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(hello->rank);
    const bool reborn =
        it != incarnations_.end() && hello->incarnation > it->second;
    if (it == incarnations_.end() || hello->incarnation >= it->second) {
      incarnations_[hello->rank] = hello->incarnation;
    }
    if (reborn && world_started_) {
      rebirth_wanted_ = true;
      reborn_pending_.insert(hello->rank);
    }
  } else if (const auto* ack = std::get_if<DistProbeAck>(&msg)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack->epoch == epoch_ && ack->wave == wave_) acks_[from] = *ack;
  } else if (auto* rollup = std::get_if<DistRollup>(&msg)) {
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rollup->epoch == epoch_ && rollup->seq == collect_seq_) {
        for (auto& e : rollup->entries) collect_entries_[e.rank] = std::move(e);
        accepted = true;
      }
    }
    if (accepted) {
      // Root ingress per collect round: the scaling benches read these to
      // show tree-mode rollups stay O(fanout) frames with delta-sized
      // payloads while the star grows linearly with rank count.
      auto& reg = obs::Registry::instance();
      reg.counter("coord_root_rollup_frames").add(1);
      reg.counter("coord_root_rollup_bytes").add(frame.size());
    }
  }
  cv_.notify_all();
}

void DistCoordinator::broadcast(const DistMsg& msg) {
  const auto bytes = encode_dist(msg);
  for (const net::PeerId r : tree_.children(kCoordinatorRank)) {
    transport_->send(r, bytes);
  }
}

void DistCoordinator::broadcast_direct(const DistMsg& msg) {
  const auto bytes = encode_dist(msg);
  for (std::size_t r = 1; r <= cfg_.n_device_procs; ++r) {
    transport_->send(static_cast<net::PeerId>(r), bytes);
  }
}

void DistCoordinator::start() {
  net::Transport::Handlers handlers;
  handlers.on_frame = [this](net::PeerId from, std::vector<std::uint8_t> f) {
    on_frame(from, std::move(f));
  };
  transport_->start(std::move(handlers));
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return incarnations_.size() >= cfg_.n_device_procs; });
  world_started_ = true;
}

bool DistCoordinator::rebirth_pending() {
  std::lock_guard<std::mutex> lock(mu_);
  return rebirth_wanted_;
}

bool DistCoordinator::await_termination(std::uint32_t k) {
  std::uint64_t prev_sent = 0;
  std::uint64_t prev_recv = 0;
  bool have_prev = false;
  const auto probe_gap = std::chrono::duration<double>(cfg_.probe_interval_s);
  const std::size_t n_ranks = cfg_.n_device_procs;
  while (true) {
    const auto wait_step = std::chrono::duration<double>(probe_patience_s_);
    std::uint32_t epoch = 0;
    std::uint32_t wave = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rebirth_wanted_) return false;
      wave_ += 1;
      wave = wave_;
      epoch = epoch_;
      acks_.clear();
    }
    TLK_EVENT_ARG("dist.probe_wave", wave);
    broadcast(DistProbe{epoch, wave});
    bool complete = false;
    bool terminated = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Tree mode: the root hears one merged ack per direct child, each
      // covering `ranks` of its subtree; a wave is complete when the
      // coverage reaches every device rank, not when every rank answered
      // individually.
      const auto covered = [&] {
        std::size_t n = 0;
        for (const auto& [r, ack] : acks_) n += ack.ranks;
        return n;
      };
      cv_.wait_for(lock, wait_step,
                   [&] { return rebirth_wanted_ || covered() >= n_ranks; });
      if (rebirth_wanted_) return false;
      complete = covered() >= n_ranks;
      if (complete) {
        bool all_settled = true;
        std::uint64_t sent = 0;
        std::uint64_t recv = 0;
        for (const auto& [rank, ack] : acks_) {
          sent += ack.sent;
          recv += ack.received;
          all_settled = all_settled && ack.idle && ack.phase_started &&
                        ack.phase == k;
        }
        if (all_settled && sent == recv) {
          if (have_prev && prev_sent == sent && prev_recv == recv) {
            terminated = true;  // two consecutive stable, balanced waves
          }
          have_prev = true;
          prev_sent = sent;
          prev_recv = recv;
        } else {
          have_prev = false;
        }
      }
    }
    if (terminated) return true;
    // Missing acks (dead or slow peer): probe again with doubled patience —
    // a slow peer's acks always land once the window exceeds its round
    // trip, and a rebirth Hello flips rebirth_wanted_ and aborts this wait.
    if (complete) {
      std::this_thread::sleep_for(probe_gap);
    } else {
      grow_probe_patience();
    }
  }
}

void DistCoordinator::grow_probe_patience() {
  probe_patience_s_ = std::min(probe_patience_s_ * 2.0, cfg_.wait_step_max_s);
}

void DistCoordinator::direct_wave(std::uint32_t epoch, double patience_s,
                                  std::size_t expected,
                                  std::map<net::PeerId, DistProbeAck>& acks) {
  std::uint32_t wave = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wave_ += 1;
    wave = wave_;
    acks_.clear();
  }
  TLK_EVENT_ARG("dist.direct_wave", wave);
  broadcast_direct(DistProbe{epoch, wave, /*direct=*/true});
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(patience_s),
               [&] { return rebirth_wanted_ || acks_.size() >= expected; });
  acks = acks_;
}

bool DistCoordinator::drain_survivors(
    std::uint32_t epoch, const std::vector<std::uint32_t>& reborn) {
  // Frames addressed to the corpses settle nowhere, so a scalar
  // sent == recv can never balance; pairwise survivor<->survivor counters
  // can. Two consecutive complete waves, idle, balanced and identical =
  // drained. An incomplete wave (a slow survivor's ack missed the window)
  // says nothing either way and keeps the previous complete one. Acks
  // from freshly respawned processes carry the kEpochUnset sentinel and
  // are filtered by the wave's epoch match.
  const auto probe_gap = std::chrono::duration<double>(cfg_.probe_interval_s);
  const std::size_t n_ranks = cfg_.n_device_procs;
  const auto is_reborn = [&](std::uint32_t r) {
    return std::find(reborn.begin(), reborn.end(), r) != reborn.end();
  };
  using PairTable = std::map<std::pair<std::uint32_t, std::uint32_t>,
                             std::pair<std::uint64_t, std::uint64_t>>;
  PairTable prev;
  bool have_prev = false;
  while (true) {
    if (rebirth_pending()) return false;
    std::map<net::PeerId, DistProbeAck> acks;
    direct_wave(epoch, probe_patience_s_, n_ranks - reborn.size(), acks);
    bool complete = true;
    for (std::uint32_t r = 1; r <= n_ranks; ++r) {
      if (!is_reborn(r) && acks.find(r) == acks.end()) complete = false;
    }
    if (!complete) {
      grow_probe_patience();
      continue;
    }
    PairTable table;  // (src, dst) -> (src sent to dst, dst took from src)
    bool all_idle = true;
    for (const auto& [r, ack] : acks) {
      if (is_reborn(r)) continue;
      all_idle = all_idle && ack.idle;
      for (const auto& p : ack.pairs) {
        if (is_reborn(p.peer) || p.peer > n_ranks) continue;
        table[{r, p.peer}].first += p.sent_to;
        table[{p.peer, r}].second += p.recv_from;
      }
    }
    bool balanced = true;
    for (const auto& [key, sr] : table) {
      if (sr.first != sr.second) {
        balanced = false;
        break;
      }
    }
    if (all_idle && balanced && have_prev && table == prev) return true;
    have_prev = all_idle && balanced;
    prev = std::move(table);
    std::this_thread::sleep_for(probe_gap);
  }
}

void DistCoordinator::absorb_catchup(std::uint32_t upto_phase,
                                     PhaseOutcome& outcome) {
  TLK_SPAN_ARG("dist.catchup", upto_phase);
  const auto t0 = std::chrono::steady_clock::now();
  const obs::TraceContext ctx = obs::current_context();
  bool again = true;
  while (again) {
    again = false;
    std::vector<std::uint32_t> reborn;
    std::uint32_t old_epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rebirth_wanted_ = false;
      // Sticky across retries: if yet another rank dies mid-recovery, the
      // restarted round recovers the union (the first rank's replay was
      // interrupted and must rerun).
      reborn.assign(reborn_pending_.begin(), reborn_pending_.end());
      old_epoch = epoch_;
    }
    if (!drain_survivors(old_epoch, reborn)) {
      again = true;
      continue;
    }

    // Bump the epoch and hand everyone the recovery plan. Catchup goes
    // direct (never relayed): the dead ranks may well be the interior of
    // the tree. The root serves the digest snapshot itself for any reborn
    // rank whose live ancestor search reaches rank 0.
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_ += 1;
      epoch = epoch_;
      wave_ = 0;
      acks_.clear();
    }
    outcome.resets += 1;
    TLK_EVENT_ARG("dist.epoch_bump", epoch);
    DistCatchup cu;
    cu.epoch = epoch;
    cu.next_phase = upto_phase;
    cu.reborn = reborn;
    broadcast_direct(cu);
    for (const std::uint32_t b : reborn) {
      if (tree_.live_ancestor(b, reborn) != kCoordinatorRank) continue;
      const auto subranks = tree_.subtree(b);
      std::vector<std::uint32_t> devs;
      for (const std::uint32_t dev : store_.devices()) {
        const net::PeerId owner = owner_rank(dev, cfg_.n_device_procs);
        if (std::find(subranks.begin(), subranks.end(), owner) !=
            subranks.end()) {
          devs.push_back(dev);
        }
      }
      DistSnapshot snap;
      snap.epoch = epoch;
      snap.collect_seq = store_applied_seq_;
      snap.rows = store_.full_for(devs);
      transport_->send(b, encode_dist(DistMsg(std::move(snap))));
    }

    // Replay every phase completed before the crash, each to global
    // termination, so the reborn ranks see their inputs phase by phase.
    for (std::uint32_t p = 0; p < upto_phase; ++p) {
      broadcast(DistBegin{epoch, p, ctx.trace_id, ctx.span_id});
      if (!await_termination(p)) {
        again = true;
        break;
      }
    }
    if (again) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reborn_pending_.clear();
      if (rebirth_wanted_) again = true;
    }
  }
  // Recovery SLO instrumentation: how long the drain + replay took, end
  // to end, observable from a live metrics scrape mid-soak.
  const auto us = static_cast<std::uint64_t>(seconds_since(t0) * 1e6);
  auto& reg = obs::Registry::instance();
  reg.counter("dist_epoch_resets").add(1);
  reg.counter("dist_recovery_us_max").max_of(us);
}

DistCoordinator::PhaseOutcome DistCoordinator::run_phase() {
  PhaseOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t k = next_phase_;
  // Each phase is one distributed trace: mint its id here, span it, and
  // ship the context inside Begin so every rank's work links under it.
  obs::ContextScope trace_root(
      {obs::trace_enabled() ? obs::new_trace_id() : 0, 0});
  TLK_SPAN_ARG("dist.phase", k);
  const obs::TraceContext ctx = obs::current_context();
  while (true) {
    if (rebirth_pending()) absorb_catchup(k, out);
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_;
    }
    broadcast(DistBegin{epoch, k, ctx.trace_id, ctx.span_id});
    if (await_termination(k)) break;
  }
  next_phase_ = k + 1;
  out.wall_seconds = seconds_since(t0);
  return out;
}

bool DistCoordinator::gray_aggregator(std::uint32_t misses) const {
  if (cfg_.gray_collect_misses != 0 && misses >= cfg_.gray_collect_misses) {
    return true;
  }
  if (cfg_.gray_collect_stale_s <= 0.0) return false;
  // rx age of the quietest interior direct child (leaf children answer the
  // root straight anyway; only an aggregator stalls a subtree). Same clock
  // as the transport's last_rx stamps.
  const double now_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  for (const auto& row : transport_->link_metrics()) {
    if (row.m.last_rx_us == 0) continue;
    const bool interior = !tree_.children(row.peer).empty();
    if (!interior) continue;
    const auto kids = tree_.children(kCoordinatorRank);
    if (std::find(kids.begin(), kids.end(), row.peer) == kids.end()) continue;
    const double age_s = (now_us - double(row.m.last_rx_us)) / 1e6;
    if (age_s > cfg_.gray_collect_stale_s) return true;
  }
  return false;
}

DistCoordinator::Collected DistCoordinator::collect() {
  Collected out;
  double patience_s = cfg_.wait_step_s;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collect_seq_ += 1;
    seq = collect_seq_;
    collect_entries_.clear();
  }
  const std::size_t n_ranks = cfg_.n_device_procs;
  bool direct_round = false;
  std::uint32_t misses = 0;
  while (true) {
    const auto wait_step = std::chrono::duration<double>(patience_s);
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_;
    }
    // Re-broadcasts reuse the same seq: every rank re-ships its cached,
    // byte-identical entry, so applying the round exactly once stays easy.
    const DistCollect ask{epoch, seq, direct_round};
    if (direct_round) {
      broadcast_direct(ask);
    } else {
      broadcast(ask);
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, wait_step,
                 [&] { return collect_entries_.size() >= n_ranks; });
    if (collect_entries_.size() < n_ranks) {
      // Same backoff as the probe waves: a gray peer whose round trip
      // exceeds the window would otherwise be re-asked forever.
      patience_s = std::min(patience_s * 2.0, cfg_.wait_step_max_s);
      misses += 1;
      if (!direct_round && cfg_.fanout != 0 && gray_aggregator(misses)) {
        // An interior aggregator looks stalled-not-dead: stop waiting on
        // relayed rollups and ask every rank to answer the root straight.
        direct_round = true;
        obs::Registry::instance().counter("coord_gray_direct_total").add(1);
      }
      continue;  // re-ask
    }
    out.epoch = epoch;
    if (store_applied_seq_ != seq) {
      for (const auto& [rank, e] : collect_entries_) store_.apply(e.deltas);
      store_applied_seq_ = seq;
    }
    for (auto& [rank, e] : collect_entries_) {
      out.violations += e.violations;
      out.metrics.jobs += e.jobs;
      out.metrics.frames += e.frames;
      out.metrics.envelopes += e.envelopes;
      out.metrics.frame_bytes += e.frame_bytes;
      out.metrics.lec_delta_seconds += e.lec_delta_seconds;
      out.metrics.recompute_seconds += e.recompute_seconds;
      out.metrics.emit_seconds += e.emit_seconds;
      out.metrics.transport.merge(e.transport);
      if (!e.trace.empty()) {
        try {
          out.traces.push_back(obs::deserialize_trace(e.trace));
        } catch (const Error&) {
          // A malformed blob loses that rank's trace, never the run.
        }
      }
      out.entries.push_back(std::move(e));  // map order: sorted by rank
    }
    collect_entries_.clear();
    break;
  }
  // The authoritative store holds every accepted round; its sorted union
  // is the whole-network digest the differential tests byte-compare.
  out.rows = store_.rows_sorted();
  // Fold in the coordinator's own side of the control links.
  for (const auto& [peer, m] : transport_->link_metrics()) {
    out.metrics.transport.merge(m);
  }
  return out;
}

void DistCoordinator::shutdown() { broadcast_direct(DistDone{}); }

}  // namespace tulkun::runtime
