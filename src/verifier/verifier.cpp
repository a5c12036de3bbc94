#include "verifier/verifier.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"

namespace tulkun::verifier {

OnDeviceVerifier::OnDeviceVerifier(DeviceId dev, const topo::Topology& topo,
                                   packet::PacketSpace& space,
                                   dvm::EngineConfig cfg)
    : dev_(dev),
      topo_(&topo),
      space_(&space),
      cfg_(cfg),
      builder_(space),
      flooding_(dev, topo) {}

void OnDeviceVerifier::install(const planner::InvariantPlan& plan) {
  Installed inst;
  inst.id = plan.id;
  inst.dag = plan.dag;
  inst.inv = std::make_shared<spec::Invariant>(plan.inv);
  inst.scenes = plan.scenes;
  inst.engine = std::make_unique<dvm::DeviceEngine>(
      dev_, *inst.dag, *inst.inv, inst.id, *space_, cfg_);
  if (initialized_) {
    // Late install: engines need the current LEC immediately.
    (void)inst.engine->set_lec(lec_);
  }
  installed_.push_back(std::move(inst));
}

void OnDeviceVerifier::install_multipath(const planner::MultiPathPlan& plan) {
  InstalledMultiPath inst;
  inst.id = plan.id;
  inst.dag_a = plan.dag_a;
  inst.dag_b = plan.dag_b;
  inst.inv = std::make_shared<spec::MultiPathInvariant>(plan.inv);
  inst.engine = std::make_unique<dvm::PathSetEngine>(
      dev_, *inst.dag_a, *inst.dag_b, *inst.inv, inst.id, *space_);
  if (initialized_) {
    (void)inst.engine->set_lec(lec_);
  }
  multipath_.push_back(std::move(inst));
}

std::optional<std::pair<spec::PathSet, spec::PathSet>>
OnDeviceVerifier::multipath_view(InvariantId session) const {
  for (const auto& inst : multipath_) {
    if (inst.id == session) return inst.engine->comparator_view();
  }
  return std::nullopt;
}

void OnDeviceVerifier::mark_undo_point() {
  undo_.emplace();
  undo_->stats = stats_;
}

void OnDeviceVerifier::restore_undo_point() {
  if (!undo_) return;
  if (undo_->tables) {
    auto& t = *undo_->tables;
    fib_ = std::move(t.fib);
    builder_ = std::move(t.builder);
    lec_ = std::move(t.lec);
    initialized_ = t.initialized;
    flooding_ = std::move(t.flooding);
  }
  for (auto& [i, engine] : undo_->engines) {
    installed_[i].engine = std::move(engine);
  }
  for (auto& [i, engine] : undo_->multipath) {
    multipath_[i].engine = std::move(engine);
  }
  stats_ = undo_->stats;
  undo_.reset();
}

void OnDeviceVerifier::save_tables() {
  if (!undo_ || undo_->tables) return;
  undo_->tables =
      UndoPoint::Tables{fib_, builder_, lec_, initialized_, flooding_};
}

void OnDeviceVerifier::save_engine(std::size_t i) {
  if (!undo_ || undo_->engines.contains(i)) return;
  undo_->engines.emplace(
      i, std::make_unique<dvm::DeviceEngine>(*installed_[i].engine));
}

void OnDeviceVerifier::save_multipath(std::size_t i) {
  if (!undo_ || undo_->multipath.contains(i)) return;
  undo_->multipath.emplace(
      i, std::make_unique<dvm::PathSetEngine>(*multipath_[i].engine));
}

void OnDeviceVerifier::save_all_engines() {
  if (!undo_) return;
  for (std::size_t i = 0; i < installed_.size(); ++i) save_engine(i);
  for (std::size_t i = 0; i < multipath_.size(); ++i) save_multipath(i);
}

std::vector<dvm::Envelope> OnDeviceVerifier::initialize(fib::FibTable fib) {
  save_tables();
  save_all_engines();
  fib_ = std::move(fib);
  lec_ = builder_.build(fib_);
  ++stats_.lec_builds;
  initialized_ = true;
  std::vector<dvm::Envelope> out;
  for (auto& inst : installed_) {
    auto msgs = inst.engine->set_lec(lec_);
    out.insert(out.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
  }
  for (auto& inst : multipath_) {
    auto msgs = inst.engine->set_lec(lec_);
    out.insert(out.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
  }
  return out;
}

std::vector<dvm::Envelope> OnDeviceVerifier::apply_rule_update(
    fib::FibUpdate& update) {
  TULKUN_ASSERT(initialized_);
  TULKUN_ASSERT(update.device == dev_);

  TLK_SPAN_ARG("device.lec_delta", dev_);
  const auto t0 = std::chrono::steady_clock::now();
  const auto note_lec_delta = [&] {
    stats_.lec_delta_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  const packet::Ipv4Prefix region_prefix =
      update.kind == fib::FibUpdate::Kind::Insert
          ? update.rule.dst_prefix
          : fib_.rule(update.rule_id).dst_prefix;
  const packet::PacketSet region =
      update.kind == fib::FibUpdate::Kind::Insert
          ? update.rule.match(*space_)
          : fib_.rule(update.rule_id).match(*space_);

  save_tables();
  const auto before =
      builder_.effective_in_region(fib_, region_prefix, region);
  if (update.kind == fib::FibUpdate::Kind::Insert) {
    update.rule_id = fib_.insert(update.rule);
  } else {
    update.rule = fib_.erase(update.rule_id);
  }
  const auto after = builder_.effective_in_region(fib_, region_prefix, region);
  const auto deltas = builder_.region_deltas(before, after);

  std::vector<dvm::Envelope> out;
  if (deltas.empty()) {
    note_lec_delta();
    return out;  // shadowed update: nothing changed
  }

  lec_ = builder_.apply_patch(lec_, region, after);
  ++stats_.lec_patches;
  note_lec_delta();
  save_all_engines();
  for (auto& inst : installed_) {
    auto msgs = inst.engine->on_lec_deltas(deltas, lec_);
    out.insert(out.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
  }
  for (auto& inst : multipath_) {
    auto msgs = inst.engine->on_lec_deltas(deltas, lec_);
    out.insert(out.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
  }
  return out;
}

std::vector<dvm::Envelope> OnDeviceVerifier::on_message(
    const dvm::Envelope& env) {
  TULKUN_ASSERT(env.dst == dev_);
  ++stats_.messages_handled;
  std::vector<dvm::Envelope> out;

  if (const auto* u = std::get_if<dvm::UpdateMessage>(&env.msg)) {
    for (std::size_t i = 0; i < installed_.size(); ++i) {
      auto& inst = installed_[i];
      if (inst.id != u->invariant) continue;
      save_engine(i);
      auto msgs = inst.engine->on_update(*u);
      out.insert(out.end(), std::make_move_iterator(msgs.begin()),
                 std::make_move_iterator(msgs.end()));
    }
  } else if (const auto* s = std::get_if<dvm::SubscribeMessage>(&env.msg)) {
    for (std::size_t i = 0; i < installed_.size(); ++i) {
      auto& inst = installed_[i];
      if (inst.id != s->invariant) continue;
      save_engine(i);
      auto msgs = inst.engine->on_subscribe(*s);
      out.insert(out.end(), std::make_move_iterator(msgs.begin()),
                 std::make_move_iterator(msgs.end()));
    }
  } else if (const auto* p = std::get_if<dvm::PathSetUpdate>(&env.msg)) {
    for (std::size_t i = 0; i < multipath_.size(); ++i) {
      auto& inst = multipath_[i];
      if (inst.id != p->session) continue;
      save_multipath(i);
      auto msgs = inst.engine->on_pathset(*p);
      out.insert(out.end(), std::make_move_iterator(msgs.begin()),
                 std::make_move_iterator(msgs.end()));
    }
  } else if (const auto* l = std::get_if<dvm::LinkStateMessage>(&env.msg)) {
    save_tables();
    save_all_engines();
    bool changed = false;
    auto refloods = flooding_.on_message(env.src, *l, changed);
    out.insert(out.end(), std::make_move_iterator(refloods.begin()),
               std::make_move_iterator(refloods.end()));
    if (changed) resync_scenes(out);
  }
  return out;
}

std::vector<dvm::Envelope> OnDeviceVerifier::on_local_link_event(LinkId link,
                                                                 bool up) {
  save_tables();
  save_all_engines();
  auto out = flooding_.local_event(link, up);
  resync_scenes(out);
  return out;
}

void OnDeviceVerifier::resync_scenes(std::vector<dvm::Envelope>& out) {
  const auto failed = flooding_.failed_links();
  const spec::FaultScene current = spec::FaultScene::of(failed);
  for (auto& inst : installed_) {
    const auto it =
        std::find(inst.scenes.begin(), inst.scenes.end(), current);
    if (it == inst.scenes.end()) {
      // §6: a scene the operator did not pre-specify — report to planner.
      ++stats_.unknown_scene_reports;
      continue;
    }
    const auto scene = static_cast<std::size_t>(it - inst.scenes.begin());
    auto msgs = inst.engine->on_scene_change(scene);
    out.insert(out.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
  }
}

std::vector<dvm::Violation> OnDeviceVerifier::violations() const {
  std::vector<dvm::Violation> out;
  for (const auto& inst : installed_) {
    const auto& v = inst.engine->violations();
    out.insert(out.end(), v.begin(), v.end());
  }
  for (const auto& inst : multipath_) {
    const auto& v = inst.engine->violations();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<std::pair<DeviceId, std::vector<dvm::CountEntry>>>
OnDeviceVerifier::source_results(InvariantId id) const {
  for (const auto& inst : installed_) {
    if (inst.id == id) return inst.engine->source_results();
  }
  return {};
}

dvm::EngineStats OnDeviceVerifier::engine_totals() const {
  dvm::EngineStats total;
  for (const auto& inst : installed_) {
    const auto& s = inst.engine->stats();
    total.updates_sent += s.updates_sent;
    total.updates_received += s.updates_received;
    total.subscribes_sent += s.subscribes_sent;
    total.entries_recomputed += s.entries_recomputed;
    total.recompute_seconds += s.recompute_seconds;
    total.emit_seconds += s.emit_seconds;
  }
  return total;
}

std::vector<std::pair<InvariantId, std::vector<dvm::DeviceEngine::NodeSnapshot>>>
OnDeviceVerifier::engine_snapshots() const {
  std::vector<
      std::pair<InvariantId, std::vector<dvm::DeviceEngine::NodeSnapshot>>>
      out;
  for (const auto& inst : installed_) {
    out.emplace_back(inst.id, inst.engine->node_snapshots());
  }
  return out;
}

std::size_t OnDeviceVerifier::memory_bytes() const {
  // Predicates share the session BDD arena; attribute 16 bytes per BDD node
  // per reference plus table bookkeeping. A proxy, but a consistent one.
  std::size_t bytes = 0;
  for (const auto& e : lec_.entries()) {
    bytes += e.pred.bdd_nodes() * 16 + sizeof(fib::Lec);
  }
  bytes += fib_.size() * sizeof(fib::Rule);
  return bytes;
}

void OnDeviceVerifier::collect_refs(std::vector<bdd::NodeRef>& out) const {
  for (const fib::Rule* r : fib_.ordered()) {
    if (r->extra_match) {
      out.push_back(r->extra_match->ref_if_materialized());
    }
  }
  lec_.collect_refs(out);
  for (const auto& inst : installed_) {
    out.push_back(inst.inv->packet_space.ref_if_materialized());
    inst.engine->collect_refs(out);
  }
  for (const auto& mp : multipath_) {
    out.push_back(mp.inv->a.space.ref_if_materialized());
    out.push_back(mp.inv->b.space.ref_if_materialized());
    mp.engine->collect_refs(out);
  }
}

}  // namespace tulkun::verifier
