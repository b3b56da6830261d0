#include "src/elastic/elastic_cluster.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace hiway {

ElasticCluster::ElasticCluster(SimEngine* engine, Cluster* cluster,
                               ResourceManager* rm, Dfs* dfs,
                               StagingCache* staging,
                               ResultCache* result_cache, Tracer* tracer,
                               ElasticOptions options)
    : engine_(engine),
      cluster_(cluster),
      rm_(rm),
      dfs_(dfs),
      staging_(staging),
      result_cache_(result_cache),
      tracer_(tracer),
      options_(std::move(options)),
      last_accrue_(engine->Now()) {
  if (options_.policy.max_nodes <= 0) {
    options_.policy.max_nodes = cluster_->num_nodes();
  }
  if (options_.policy.min_nodes > options_.policy.max_nodes) {
    options_.policy.min_nodes = options_.policy.max_nodes;
  }
}

int ElasticCluster::LiveNodes() const {
  int live = 0;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    if (rm_->IsNodeAlive(n)) ++live;
  }
  return live;
}

void ElasticCluster::Accrue() {
  double now = engine_->Now();
  double dt = now - last_accrue_;
  last_accrue_ = now;
  if (dt > 0.0) stats_.node_seconds += dt * LiveNodes();
}

const ElasticStats& ElasticCluster::stats() {
  Accrue();
  return stats_;
}

std::vector<NodeId> ElasticCluster::MigrationTargets(NodeId excluding) const {
  std::vector<NodeId> targets;
  for (NodeId n = dfs_->options().first_datanode; n < cluster_->num_nodes();
       ++n) {
    if (n == excluding) continue;
    if (rm_->IsNodeAlive(n) && !rm_->IsNodeDraining(n)) targets.push_back(n);
  }
  return targets;
}

void ElasticCluster::Depart(NodeId node, Departure kind) {
  // Node-hours: the node counts up to this instant and no further.
  Accrue();
  if (kind == Departure::kRetired) {
    // Unpinned staged bytes survive the node; pinned ones die with it.
    if (staging_ != nullptr) {
      staging_->MigrateNode(node, MigrationTargets(node));
    }
    bool vacated = rm_->DecommissionNode(node);
    HIWAY_CHECK(vacated);  // the front door checked the refusal
  } else {
    rm_->KillNode(node);
  }
  // Only a lost DataNode gets no chance to rescue its sole replicas.
  if (kind == Departure::kLost) {
    dfs_->KillNode(node);
  } else {
    dfs_->DecommissionNode(node);
  }
  // The node's scratch disk is gone with it.
  if (staging_ != nullptr) staging_->InvalidateNode(node);
  // Restores the redundancy of surviving blocks (including recorded task
  // outputs the failover memoiser will want to read).
  dfs_->ReReplicate();
  // No sealed entry may reference a vanished-only replica: after a
  // rescue the sweep finds nothing; after a loss it evicts exactly the
  // destroyed entries.
  if (result_cache_ != nullptr) result_cache_->EvictUnreadable();
}

bool ElasticCluster::KillNode(NodeId node) {
  if (!rm_->IsNodeAlive(node)) return false;
  Depart(node, Departure::kLost);
  return true;
}

bool ElasticCluster::DecommissionNode(NodeId node) {
  if (!rm_->IsNodeAlive(node) || rm_->HostsAm(node)) return false;
  Depart(node, Departure::kRetired);
  ++stats_.nodes_decommissioned;
  return true;
}

bool ElasticCluster::RevokeNode(NodeId node, double warn_s) {
  if (!rm_->IsNodeAlive(node) || rm_->IsNodeDraining(node)) return false;
  Accrue();
  ++stats_.nodes_revoked;
  double deadline = engine_->Now() + std::max(0.0, warn_s);
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "spot_revoke", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, node, warn_s);
  }
  // Warning phase: stop placements, let AMs triage (keep short tasks,
  // requeue the rest uncharged), move unpinned staged bytes off.
  rm_->BeginDrain(node, deadline);
  if (staging_ != nullptr) {
    staging_->MigrateNode(node, MigrationTargets(node));
  }
  // Deadline: the instance is gone.
  engine_->ScheduleAt(deadline, [this, node] {
    if (rm_->IsNodeAlive(node)) Depart(node, Departure::kRevoked);
  });
  return true;
}

void ElasticCluster::ScaleOut(int count) {
  ++stats_.scale_out_actions;
  last_action_ = engine_->Now();
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "autoscale_out", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, /*node=*/-1,
                     static_cast<double>(count));
  }
  pending_joins_ += count;
  // Provisioning latency, then topology + RM onboarding in one event
  // (the registration heartbeat).
  engine_->ScheduleAfter(options_.join_delay_s, [this, count] {
    for (int i = 0; i < count; ++i) {
      NodeSpec spec = options_.node_template;
      spec.name.clear();  // Cluster names joiners node-<id>
      NodeId id = cluster_->AddNode(std::move(spec));
      rm_->AddNode(id);
      ++stats_.nodes_added;
    }
    Accrue();
    pending_joins_ -= count;
  });
}

void ElasticCluster::ScaleIn(int count) {
  // Retire the highest-id empty workers first (they are the most likely
  // to be elastic joiners; low ids keep the long-lived data).
  std::vector<NodeId> victims;
  for (NodeId n = cluster_->num_nodes() - 1;
       n >= dfs_->options().first_datanode; --n) {
    if (static_cast<int>(victims.size()) >= count) break;
    if (!rm_->IsNodeAlive(n) || rm_->IsNodeDraining(n)) continue;
    if (rm_->containers_on(n) > 0) continue;
    if (LiveNodes() - static_cast<int>(victims.size()) <=
        options_.policy.min_nodes) {
      break;
    }
    victims.push_back(n);
  }
  if (victims.empty()) return;
  ++stats_.scale_in_actions;
  last_action_ = engine_->Now();
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "autoscale_in", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, /*node=*/-1,
                     static_cast<double>(victims.size()));
  }
  for (NodeId n : victims) DecommissionNode(n);
}

void ElasticCluster::Start() {
  if (started_ || !options_.policy.enabled) return;
  started_ = true;
  Poll(/*seen_activity=*/false);
}

void ElasticCluster::Poll(bool seen_activity) {
  engine_->ScheduleAfter(options_.policy.poll_s, [this, seen_activity] {
    bool active = active_ ? active_() : true;
    if (!active) {
      // Same termination contract as FaultInjector::Recur: poll through
      // the pre-submission gap, stop once the workload has quiesced.
      if (seen_activity) return;
      Poll(/*seen_activity=*/false);
      return;
    }
    Accrue();
    double now = engine_->Now();
    const AutoscalerPolicy& p = options_.policy;

    // Signal 1: sustained container backlog -> scale out.
    bool backlogged = rm_->pending_requests() > 0;
    if (backlogged) {
      if (backlog_since_ < 0.0) backlog_since_ = now;
    } else {
      backlog_since_ = -1.0;
    }
    // Signal 2: sustained empty worker -> scale in.
    bool any_idle = false;
    for (NodeId n = dfs_->options().first_datanode; n < cluster_->num_nodes();
         ++n) {
      if (rm_->IsNodeAlive(n) && !rm_->IsNodeDraining(n) &&
          rm_->containers_on(n) == 0) {
        any_idle = true;
        break;
      }
    }
    if (any_idle) {
      if (idle_since_ < 0.0) idle_since_ = now;
    } else {
      idle_since_ = -1.0;
    }

    bool cooled = now - last_action_ >= p.cooldown_s;
    if (cooled && backlog_since_ >= 0.0 &&
        now - backlog_since_ >= p.scale_out_after_s) {
      int room = p.max_nodes - (LiveNodes() + pending_joins_);
      int step = std::min(p.scale_out_step, room);
      if (step > 0) ScaleOut(step);
    } else if (cooled && !backlogged && idle_since_ >= 0.0 &&
               now - idle_since_ >= p.scale_in_after_s) {
      ScaleIn(p.scale_in_step);
    }
    Poll(/*seen_activity=*/true);
  });
}

}  // namespace hiway
