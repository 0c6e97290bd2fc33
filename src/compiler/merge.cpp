#include "compiler/merge.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <tuple>

#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

/// Distinct node-level dependences (producer node, consumer node), u != v,
/// in ascending order.
std::vector<std::pair<int, int>> NodeEdges(const CodeGraph& graph) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(graph.edges.size());
  for (const DepEdge& edge : graph.edges) {
    const int u = graph.NodeOf(edge.producer);
    const int v = graph.NodeOf(edge.consumer);
    if (u != v) {
      edges.emplace_back(u, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Partition index of every graph node (-1 for a node in no partition).
std::vector<int> NodePartitions(const CodeGraph& graph,
                                const std::vector<MergedPartition>& parts) {
  std::vector<int> part_of(graph.nodes.size(), -1);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (ir::StmtId stmt : parts[p].stmts) {
      part_of[static_cast<std::size_t>(graph.NodeOf(stmt))] = static_cast<int>(p);
    }
  }
  return part_of;
}

/// Working state of the affinity merge (INTERNALS.md section 4 states the
/// contract).  Live nodes carry merged attributes; dense n x n matrices
/// count the statement-level dependence edges between node pairs
/// (undirected for the affinity; directed for the throughput variant's SCC
/// collapse).  Pair affinities sit in runs, each a max-heap: one per node
/// for its initial pairs, and one more per merge for the survivor's
/// rescored pairs.  A small heap of run fronts yields the best live pair.
/// An entry goes stale when either of its nodes absorbs another; stale
/// entries are skipped, and a run whose owner moved on is dropped whole.
class Merger {
 public:
  Merger(const CodeGraph& graph, const CompileOptions& options)
      : options_(options),
        n_(graph.nodes.size()),
        undirected_(n_ * n_, 0),
        directed_(options.throughput_heuristic ? n_ * n_ : 0, 0),
        stamp_(n_, 0),
        used_(n_, 0) {
    nodes_.reserve(n_);
    for (const GraphNode& node : graph.nodes) {
      nodes_.push_back(Live{node.stmts, node.cost, node.min_line,
                            node.compute_ops, /*alive=*/true});
    }
    for (int u = 0; u < static_cast<int>(n_); ++u) {
      live_.push_back(u);
    }
    for (const DepEdge& edge : graph.edges) {
      const int u = graph.NodeOf(edge.producer);
      const int v = graph.NodeOf(edge.consumer);
      if (u != v) {
        ++undirected_[At(u, v)];
        ++undirected_[At(v, u)];
        if (!directed_.empty()) {
          ++directed_[At(u, v)];
        }
      }
    }
    runs_.reserve(2 * n_);
    for (int u : live_) {
      std::vector<Pair> pairs;
      pairs.reserve(n_ - static_cast<std::size_t>(u));
      for (int v = u + 1; v < static_cast<int>(n_); ++v) {
        pairs.push_back(Pair{Affinity(u, v), u, v, /*stamp=*/0});
      }
      AddRun(std::move(pairs), u, /*stamp=*/0);
    }
  }

  /// Merges down to `num_cores` nodes.  Construction depends only on the
  /// graph and the affinity options, so one built Merger can be copied
  /// for each partition count.
  std::vector<MergedPartition> Run(int num_cores) {
    num_cores_ = num_cores;
    if (options_.throughput_heuristic) {
      CollapseCycles();
    }
    while (Alive() > num_cores_) {
      const int merges_this_step =
          options_.multi_pair_merge ? std::max(1, Alive() / 8) : 1;
      if (!MergeStep(merges_this_step)) {
        break;  // no candidate pair (degenerate); stop
      }
      if (options_.throughput_heuristic) {
        CollapseCycles();
      }
    }
    return Finish();
  }

 private:
  struct Live {
    std::vector<ir::StmtId> stmts;
    double cost;
    int min_line;
    int compute_ops;
    bool alive;
  };

  /// The pair (u < v), scored when the merge clock read `stamp`.
  struct Pair {
    double affinity;
    int u, v;
    int stamp;
  };

  /// A max-heap of pairs.  Every pair touches `owner` (-1: no common node)
  /// and was scored at merge clock `stamp`.
  struct PairRun {
    std::vector<Pair> pairs;
    int owner = -1;
    int stamp = 0;
  };

  /// A run's current front entry, for the heap of run heads.
  struct Head {
    Pair pair;
    std::size_t run;
  };

  /// The order of a stable sort by affinity descending, then (u, v)
  /// ascending: true when `a` ranks below `b`.
  static bool Lower(const Pair& a, const Pair& b) {
    if (a.affinity != b.affinity) {
      return a.affinity < b.affinity;
    }
    return std::tie(a.u, a.v) > std::tie(b.u, b.v);
  }
  static bool HeadLower(const Head& a, const Head& b) { return Lower(a.pair, b.pair); }

  int Alive() const { return static_cast<int>(live_.size()); }
  const Live& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  std::size_t At(int u, int v) const {
    return static_cast<std::size_t>(u) * n_ + static_cast<std::size_t>(v);
  }

  double Affinity(int u, int v) const {
    const double edges = undirected_[At(u, v)];
    const double combined_cost = node(u).cost + node(v).cost;
    const double line_dist = std::abs(node(u).min_line - node(v).min_line);
    return options_.w_deps * edges +
           options_.w_cost * options_.cost_scale /
               (options_.cost_scale + combined_cost) +
           options_.w_prox * options_.line_scale /
               (options_.line_scale + line_dist);
  }

  /// Live and scored after the last merge into either node.
  bool Valid(const Pair& pair) const {
    return node(pair.u).alive && node(pair.v).alive &&
           pair.stamp >= stamp_[static_cast<std::size_t>(pair.u)] &&
           pair.stamp >= stamp_[static_cast<std::size_t>(pair.v)];
  }

  void AddRun(std::vector<Pair> pairs, int owner, int stamp) {
    std::make_heap(pairs.begin(), pairs.end(), Lower);
    runs_.push_back(PairRun{std::move(pairs), owner, stamp});
    PushHead(runs_.size() - 1);
  }

  static void PopFront(PairRun& run) {
    std::pop_heap(run.pairs.begin(), run.pairs.end(), Lower);
    run.pairs.pop_back();
  }

  /// Drops the run's stale front entries and queues its best live one.
  void PushHead(std::size_t r) {
    PairRun& run = runs_[r];
    const bool owner_moved =
        run.owner >= 0 && (!node(run.owner).alive ||
                           stamp_[static_cast<std::size_t>(run.owner)] > run.stamp);
    if (!owner_moved) {
      while (!run.pairs.empty() && !Valid(run.pairs.front())) {
        PopFront(run);
      }
      if (!run.pairs.empty()) {
        heads_.push_back(Head{run.pairs.front(), r});
        std::push_heap(heads_.begin(), heads_.end(), HeadLower);
        return;
      }
    }
    run.pairs = {};  // every entry is stale
  }

  /// The best live pair, left at the front of its run; none when every run
  /// is exhausted or waiting.
  std::optional<Head> PopBest() {
    while (!heads_.empty()) {
      std::pop_heap(heads_.begin(), heads_.end(), HeadLower);
      const Head head = heads_.back();
      heads_.pop_back();
      if (Valid(head.pair)) {
        return head;
      }
      PushHead(head.run);
    }
    return std::nullopt;
  }

  /// Merges `v` into `u`, then rescores the pairs that touch `u` (no other
  /// pair's affinity changes).
  void Merge(int u, int v) {
    FGPAR_CHECK(u != v);
    Live& dst = nodes_[static_cast<std::size_t>(u)];
    Live& src = nodes_[static_cast<std::size_t>(v)];
    FGPAR_CHECK(dst.alive && src.alive);
    dst.stmts.insert(dst.stmts.end(), src.stmts.begin(), src.stmts.end());
    dst.cost += src.cost;
    dst.min_line = std::min(dst.min_line, src.min_line);
    dst.compute_ops += src.compute_ops;
    src.alive = false;
    live_.erase(std::lower_bound(live_.begin(), live_.end(), v));

    // Fold v's edges into u; edges between u and v vanish ("Any dependence
    // edges that may have existed between the two nodes being merged no
    // longer exist after the merge").  Dead rows are never read again.
    for (int x : live_) {
      if (x != u) {
        undirected_[At(u, x)] += undirected_[At(v, x)];
        undirected_[At(x, u)] = undirected_[At(u, x)];
        if (!directed_.empty()) {
          directed_[At(u, x)] += directed_[At(v, x)];
          directed_[At(x, u)] += directed_[At(x, v)];
        }
      }
    }

    stamp_[static_cast<std::size_t>(u)] = ++clock_;
    std::vector<Pair> pairs;
    pairs.reserve(live_.size());
    for (int x : live_) {
      if (x != u) {
        const int a = std::min(u, x);
        const int b = std::max(u, x);
        pairs.push_back(Pair{Affinity(a, b), a, b, clock_});
      }
    }
    AddRun(std::move(pairs), u, clock_);
  }

  /// One merge step: merges up to `max_merges` disjoint best-affinity pairs,
  /// preferring pairs under the balance cap.
  bool MergeStep(int max_merges) {
    double total_cost = 0.0;
    for (int u : live_) {
      total_cost += node(u).cost;
    }
    // Balance cap: a merged node should not exceed its fair share of the
    // total cost by more than the configured factor.
    const double cost_cap =
        options_.balance_cap * total_cost / std::max(1, num_cores_);
    if (cost_cap >= parked_min_) {
      // The cap rose past a parked pair (summation rounding): rank them all
      // again.
      std::erase_if(parked_, [&](const Pair& pair) { return !Valid(pair); });
      AddRun(std::move(parked_), /*owner=*/-1, clock_);
      parked_.clear();
      parked_min_ = std::numeric_limits<double>::infinity();
    }
    const int allowed = std::min(max_merges, Alive() - num_cores_);
    int merges = 0;
    auto unused = [&](const Pair& pair) {
      return used_[static_cast<std::size_t>(pair.u)] == 0 &&
             used_[static_cast<std::size_t>(pair.v)] == 0;
    };
    auto take = [&](const Pair& pair) {
      Merge(pair.u, pair.v);
      used_[static_cast<std::size_t>(pair.u)] = 1;
      used_[static_cast<std::size_t>(pair.v)] = 1;
      ++merges;
    };
    // Runs whose front pair touches a node merged this step: a surviving
    // node's rescored pairs, which the next step ranks.
    std::vector<std::size_t> waiting;
    while (merges < allowed) {
      const std::optional<Head> head = PopBest();
      if (!head) {
        break;
      }
      const Pair& pair = head->pair;
      if (!unused(pair)) {
        waiting.push_back(head->run);
        continue;
      }
      PopFront(runs_[head->run]);
      PushHead(head->run);
      const double combined = node(pair.u).cost + node(pair.v).cost;
      if (combined > cost_cap) {
        parked_.push_back(pair);
        parked_min_ = std::min(parked_min_, combined);
        continue;
      }
      take(pair);
    }
    if (merges == 0) {
      // No pair is under the cap, so every run drained and every live pair
      // is parked.  Must still converge to num_cores nodes: take the best
      // pairs of all.
      std::erase_if(parked_, [&](const Pair& pair) { return !Valid(pair); });
      std::sort(parked_.begin(), parked_.end(),
                [](const Pair& a, const Pair& b) { return Lower(b, a); });
      for (const Pair& pair : parked_) {
        if (merges >= allowed) {
          break;
        }
        if (unused(pair)) {
          take(pair);
        }
      }
    }
    for (std::size_t r : waiting) {
      PushHead(r);
    }
    std::fill(used_.begin(), used_.end(), 0);
    return merges > 0;
  }

  /// Collapses every dependence cycle among live nodes (Tarjan SCC over the
  /// directed dependence graph).
  void CollapseCycles() {
    for (;;) {
      const std::vector<std::vector<int>> sccs = FindSccs();
      bool merged_any = false;
      for (const std::vector<int>& scc : sccs) {
        if (scc.size() > 1) {
          for (std::size_t i = 1; i < scc.size(); ++i) {
            Merge(scc[0], scc[i]);
          }
          merged_any = true;
          break;  // edges changed; recompute SCCs
        }
      }
      if (!merged_any) {
        return;
      }
    }
  }

  /// Iterative Tarjan over live nodes, roots and successors ascending.
  std::vector<std::vector<int>> FindSccs() const {
    std::vector<int> index_of(n_, -1);
    std::vector<int> lowlink(n_, 0);
    std::vector<char> on_stack(n_, 0);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
    int counter = 0;

    struct Frame {
      int node;
      std::size_t child = 0;  // next position in live_ to try
    };
    auto enter = [&](int w) {
      index_of[static_cast<std::size_t>(w)] = lowlink[static_cast<std::size_t>(w)] =
          counter++;
      stack.push_back(w);
      on_stack[static_cast<std::size_t>(w)] = 1;
    };
    for (int start : live_) {
      if (index_of[static_cast<std::size_t>(start)] >= 0) {
        continue;
      }
      std::vector<Frame> frames{{start}};
      enter(start);
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const auto from = static_cast<std::size_t>(frame.node);
        while (frame.child < live_.size() &&
               directed_[At(frame.node, live_[frame.child])] == 0) {
          ++frame.child;
        }
        if (frame.child < live_.size()) {
          const int next = live_[frame.child++];
          const auto to = static_cast<std::size_t>(next);
          if (index_of[to] < 0) {
            enter(next);
            frames.push_back(Frame{next});
          } else if (on_stack[to] != 0) {
            lowlink[from] = std::min(lowlink[from], index_of[to]);
          }
        } else {
          if (lowlink[from] == index_of[from]) {
            std::vector<int> scc;
            for (;;) {
              const int w = stack.back();
              stack.pop_back();
              on_stack[static_cast<std::size_t>(w)] = 0;
              scc.push_back(w);
              if (w == frame.node) {
                break;
              }
            }
            sccs.push_back(std::move(scc));
          }
          frames.pop_back();
          if (!frames.empty()) {
            const auto parent = static_cast<std::size_t>(frames.back().node);
            lowlink[parent] = std::min(lowlink[parent], lowlink[from]);
          }
        }
      }
    }
    return sccs;
  }

  std::vector<MergedPartition> Finish() const {
    std::vector<MergedPartition> out;
    for (const Live& live : nodes_) {
      if (live.alive && !live.stmts.empty()) {
        out.push_back(MergedPartition{live.stmts, live.cost, live.compute_ops});
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedPartition& a, const MergedPartition& b) {
                       return a.cost > b.cost;
                     });
    return out;
  }

  const CompileOptions& options_;
  int num_cores_ = 0;
  std::size_t n_;
  std::vector<Live> nodes_;
  std::vector<int> live_;  // live nodes, ascending
  std::vector<int> undirected_;  // n x n edge counts, for affinity
  std::vector<int> directed_;    // n x n, throughput variant only
  std::vector<PairRun> runs_;
  std::vector<Head> heads_;  // max-heap of run fronts
  // Live pairs over the balance cap, kept out of the runs.  A live pair's
  // combined cost is fixed, and the cap moves only by summation rounding,
  // so a parked pair stays over it until the cap reaches `parked_min_`.
  std::vector<Pair> parked_;
  double parked_min_ = std::numeric_limits<double>::infinity();
  std::vector<int> stamp_;  // merge clock of each node's last absorption
  int clock_ = 0;
  std::vector<char> used_;  // merged in the current step
};

/// Per-partition cycle penalty: every partition on a dependence cycle of
/// the partition digraph `reach` (num_parts x num_parts) pays one full
/// round trip per member, because the in-order core blocks in the dequeue
/// that closes the cycle.
std::vector<double> CyclePenalties(std::vector<char> reach, int num_parts,
                                   const CompileOptions& options) {
  const auto p_count = static_cast<std::size_t>(num_parts);
  // Transitive closure -> SCCs of the partition digraph.
  for (std::size_t k = 0; k < p_count; ++k) {
    for (std::size_t i = 0; i < p_count; ++i) {
      if (reach[i * p_count + k] == 0) {
        continue;
      }
      for (std::size_t j = 0; j < p_count; ++j) {
        reach[i * p_count + j] |= reach[k * p_count + j];
      }
    }
  }
  const double hop = static_cast<double>(options.assumed_transfer_latency) + 1.0;
  std::vector<double> penalty(p_count, 0.0);
  for (std::size_t i = 0; i < p_count; ++i) {
    int size = 1;
    for (std::size_t j = 0; j < p_count; ++j) {
      if (i != j && reach[i * p_count + j] != 0 && reach[j * p_count + i] != 0) {
        ++size;
      }
    }
    penalty[i] = size > 1 ? static_cast<double>(size) * hop : 0.0;
  }
  return penalty;
}

/// The objective tuple from its per-partition terms.
std::tuple<double, int, double> ObjectiveOf(const std::vector<double>& cost,
                                            const std::vector<double>& penalty,
                                            const std::vector<int>& queue_ops,
                                            int transfers) {
  double makespan = 0.0;
  double max_cost = 0.0;
  for (std::size_t p = 0; p < cost.size(); ++p) {
    makespan = std::max(makespan, cost[p] + penalty[p] +
                                      static_cast<double>(queue_ops[p]));
    max_cost = std::max(max_cost, cost[p]);
  }
  return {makespan, transfers, max_cost};
}

}  // namespace

/// Partition-quality objective used for refinement and candidate selection:
/// an estimated per-iteration makespan.  A bidirectional dependence between
/// two partitions forces a round trip through the queues each iteration
/// that an in-order core cannot pipeline past, so it charges both sides
/// 2 * (assumed transfer latency + 1) cycles; one-way transfers pipeline
/// across iterations and are charged only a small per-transfer queue-op
/// cost.  Ties break on transfer count, then on raw max cost.
std::tuple<double, int, double> PartitionObjective(
    const CodeGraph& graph, const std::vector<MergedPartition>& parts,
    const CompileOptions& options) {
  const std::size_t num_parts = parts.size();
  const std::vector<int> part_of = NodePartitions(graph, parts);
  // Cross-partition transfers at (producer node, consumer partition)
  // granularity — one queue transfer per iteration each, and one queue op
  // on each side.
  std::vector<char> crosses(graph.nodes.size() * num_parts, 0);
  std::vector<char> reach(num_parts * num_parts, 0);
  std::vector<int> queue_ops(num_parts, 0);
  int transfers = 0;
  for (const DepEdge& edge : graph.edges) {
    const auto u = static_cast<std::size_t>(graph.NodeOf(edge.producer));
    const int pu = part_of[u];
    const int pv = part_of[static_cast<std::size_t>(graph.NodeOf(edge.consumer))];
    FGPAR_CHECK_MSG(pu >= 0 && pv >= 0, "dependence endpoint in no partition");
    if (pu != pv) {
      reach[static_cast<std::size_t>(pu) * num_parts + static_cast<std::size_t>(pv)] = 1;
      char& cross = crosses[u * num_parts + static_cast<std::size_t>(pv)];
      if (cross == 0) {
        cross = 1;
        ++transfers;
        ++queue_ops[static_cast<std::size_t>(pu)];
        ++queue_ops[static_cast<std::size_t>(pv)];
      }
    }
  }
  std::vector<double> cost;
  cost.reserve(num_parts);
  for (const MergedPartition& part : parts) {
    cost.push_back(part.cost);
  }
  return ObjectiveOf(cost,
                     CyclePenalties(std::move(reach), static_cast<int>(num_parts), options),
                     queue_ops, transfers);
}

namespace {

/// Alternative candidate: contiguous segments of a cost-balanced
/// topological order.  Edges between segments only ever point forward, so
/// the resulting pipeline is acyclic by construction (the DSWP-like shape).
std::vector<MergedPartition> TopoSegments(const CodeGraph& graph,
                                          const CompileOptions& options) {
  const int n = static_cast<int>(graph.nodes.size());
  std::vector<std::vector<int>> succs(static_cast<std::size_t>(n));
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const auto& [u, v] : NodeEdges(graph)) {
    succs[static_cast<std::size_t>(u)].push_back(v);
    ++indegree[static_cast<std::size_t>(v)];
  }
  // Kahn's algorithm; ties broken by source order (min_line, index).
  std::vector<int> order;
  std::set<std::pair<int, int>> ready;  // (min_line, node)
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.insert({graph.nodes[static_cast<std::size_t>(i)].min_line, i});
    }
  }
  while (!ready.empty()) {
    const int node = ready.begin()->second;
    ready.erase(ready.begin());
    order.push_back(node);
    for (int next : succs[static_cast<std::size_t>(node)]) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        ready.insert({graph.nodes[static_cast<std::size_t>(next)].min_line, next});
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return {};  // unexpected cycle at node level; no topo candidate
  }
  double total = 0.0;
  for (const GraphNode& node : graph.nodes) {
    total += node.cost;
  }
  std::vector<MergedPartition> parts;
  MergedPartition current;
  double remaining = total;
  int segments_left = options.num_cores;
  for (int node : order) {
    const GraphNode& gn = graph.nodes[static_cast<std::size_t>(node)];
    const double target = remaining / segments_left;
    if (segments_left > 1 && !current.stmts.empty() &&
        current.cost + gn.cost / 2.0 > target) {
      remaining -= current.cost;
      parts.push_back(std::move(current));
      current = MergedPartition{};
      --segments_left;
    }
    current.stmts.insert(current.stmts.end(), gn.stmts.begin(), gn.stmts.end());
    current.cost += gn.cost;
    current.compute_ops += gn.compute_ops;
  }
  if (!current.stmts.empty()) {
    parts.push_back(std::move(current));
  }
  return parts;
}

}  // namespace

/// Directed sender->receiver channels a partitioning needs: loop transfers
/// (one per cross-partition dependence direction) plus, for every partition
/// other than the primary (the most expensive one after sorting), the
/// dispatch/argument channel from the primary and the live-out/completion
/// channel back — the Section III-G protocol traffic.
int ChannelsUsed(const CodeGraph& graph, const std::vector<MergedPartition>& parts) {
  const std::size_t num_parts = parts.size();
  const std::vector<int> part_of = NodePartitions(graph, parts);
  std::vector<char> channel(num_parts * num_parts, 0);
  for (std::size_t p = 1; p < num_parts; ++p) {
    channel[p] = 1;              // dispatch + args
    channel[p * num_parts] = 1;  // completion + live-outs
  }
  for (const DepEdge& edge : graph.edges) {
    const int pu = part_of[static_cast<std::size_t>(graph.NodeOf(edge.producer))];
    const int pv = part_of[static_cast<std::size_t>(graph.NodeOf(edge.consumer))];
    FGPAR_CHECK_MSG(pu >= 0 && pv >= 0, "dependence endpoint in no partition");
    if (pu != pv) {
      channel[static_cast<std::size_t>(pu) * num_parts + static_cast<std::size_t>(pv)] = 1;
    }
  }
  return static_cast<int>(std::count(channel.begin(), channel.end(), 1));
}

std::vector<std::vector<MergedPartition>> EnumerateCandidates(
    const CodeGraph& graph, const CompileOptions& options) {
  FGPAR_CHECK_MSG(options.num_cores >= 1, "num_cores must be >= 1");
  std::vector<std::vector<MergedPartition>> candidates;
  std::set<std::vector<std::vector<ir::StmtId>>> seen;
  auto add = [&](std::vector<MergedPartition> parts) {
    if (parts.empty()) {
      return;
    }
    if (options.max_channels > 0 &&
        ChannelsUsed(graph, parts) > options.max_channels) {
      return;  // exceeds the hardware queue budget
    }
    std::stable_sort(parts.begin(), parts.end(),
                     [](const MergedPartition& a, const MergedPartition& b) {
                       return a.cost > b.cost;
                     });
    std::vector<std::vector<ir::StmtId>> key;
    for (MergedPartition& p : parts) {
      std::sort(p.stmts.begin(), p.stmts.end());
      key.push_back(p.stmts);
    }
    std::sort(key.begin(), key.end());
    if (seen.insert(std::move(key)).second) {
      candidates.push_back(std::move(parts));
    }
  };

  if (options.throughput_heuristic) {
    // The ablation keeps the paper's exact variant: affinity merge with
    // cycle collapsing, at the requested core count.
    add(RefinePartitions(graph, Merger(graph, options).Run(options.num_cores),
                         options));
    return candidates;
  }
  const Merger merger(graph, options);
  for (int target = std::min(2, options.num_cores); target <= options.num_cores;
       ++target) {
    CompileOptions sub = options;
    sub.num_cores = target;
    add(RefinePartitions(graph, Merger(merger).Run(target), sub));
    std::vector<MergedPartition> topo = TopoSegments(graph, sub);
    if (!topo.empty()) {
      add(RefinePartitions(graph, std::move(topo), sub));
    }
  }
  if (candidates.empty()) {
    // The queue budget rejected every multi-partition shape: fall back to a
    // single partition (sequential on the primary core, zero queues).
    MergedPartition all;
    for (const GraphNode& node : graph.nodes) {
      all.stmts.insert(all.stmts.end(), node.stmts.begin(), node.stmts.end());
      all.cost += node.cost;
      all.compute_ops += node.compute_ops;
    }
    candidates.push_back({std::move(all)});
  }
  FGPAR_CHECK_MSG(!candidates.empty(), "no partitioning candidate produced");
  return candidates;
}

std::vector<MergedPartition> MergeGraph(const CodeGraph& graph,
                                        const CompileOptions& options) {
  std::vector<std::vector<MergedPartition>> candidates =
      EnumerateCandidates(graph, options);
  std::size_t best = 0;
  auto best_score = PartitionObjective(graph, candidates[0], options);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto score = PartitionObjective(graph, candidates[i], options);
    if (score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return std::move(candidates[best]);
}

namespace {

/// Refine's working node assignment with PartitionObjective's terms kept
/// current under single-node moves: per-node adjacency, per-(producer node,
/// consumer partition) successor counts, per-partition queue-op counts and
/// a partition-edge matrix, each updated in O(degree + partitions).  A
/// partition's cost is re-summed over its nodes in ascending order, as a
/// rebuilt candidate sums it, so the objective's bits match a full
/// evaluation.
class RefineState {
 public:
  RefineState(const CodeGraph& graph, std::vector<int> part_of, int num_parts,
              const CompileOptions& options)
      : graph_(graph),
        options_(options),
        n_(graph.nodes.size()),
        parts_(static_cast<std::size_t>(num_parts)),
        part_(std::move(part_of)),
        succs_(n_),
        preds_(n_),
        count_(parts_, 0),
        successors_in_(n_ * parts_, 0),
        part_edges_(parts_ * parts_, 0),
        queue_ops_(parts_, 0),
        cost_(parts_, 0.0) {
    for (std::size_t node = 0; node < n_; ++node) {
      FGPAR_CHECK_MSG(part_[node] >= 0, "refine: graph node in no partition");
      const auto p = static_cast<std::size_t>(part_[node]);
      ++count_[p];
      cost_[p] += graph_.nodes[node].cost;
    }
    for (const auto& [u, v] : NodeEdges(graph)) {
      succs_[static_cast<std::size_t>(u)].push_back(v);
      preds_[static_cast<std::size_t>(v)].push_back(u);
      ++successors_in_[At(u, part(v))];
      if (part(u) != part(v)) {
        ++part_edges_[At(part(u), part(v))];
      }
    }
    for (std::size_t node = 0; node < n_; ++node) {
      ToggleTransfers(static_cast<int>(node), +1);
    }
  }

  std::size_t size() const { return n_; }
  int part(int node) const { return part_[static_cast<std::size_t>(node)]; }
  int count(int p) const { return count_[static_cast<std::size_t>(p)]; }

  /// Has a dependence (either direction) into another partition.
  bool OnBoundary(int node) const {
    const int from = part(node);
    auto other = [&](int x) { return part(x) != from; };
    return std::any_of(succs_[static_cast<std::size_t>(node)].begin(),
                       succs_[static_cast<std::size_t>(node)].end(), other) ||
           std::any_of(preds_[static_cast<std::size_t>(node)].begin(),
                       preds_[static_cast<std::size_t>(node)].end(), other);
  }

  std::tuple<double, int, double> Objective() const {
    return ObjectiveOf(cost_, Penalties(), queue_ops_, transfers_);
  }

  /// Moves `node` to `to` and keeps the move iff the objective falls below
  /// `baseline`.
  bool TryMove(int node, int to, const std::tuple<double, int, double>& baseline) {
    const int from = part(node);
    const double from_cost = cost_[static_cast<std::size_t>(from)];
    const double to_cost = cost_[static_cast<std::size_t>(to)];
    Move(node, to);
    Resum(from, to);
    if (Objective() < baseline) {
      return true;
    }
    Move(node, from);
    cost_[static_cast<std::size_t>(from)] = from_cost;
    cost_[static_cast<std::size_t>(to)] = to_cost;
    return false;
  }

  /// The assignment as partitions: nodes in ascending order, empty
  /// partitions dropped, descending cost.
  std::vector<MergedPartition> Partitions() const {
    std::vector<MergedPartition> out(parts_);
    for (std::size_t node = 0; node < n_; ++node) {
      MergedPartition& part = out[static_cast<std::size_t>(part_[node])];
      const GraphNode& gn = graph_.nodes[node];
      part.stmts.insert(part.stmts.end(), gn.stmts.begin(), gn.stmts.end());
      part.cost += gn.cost;
      part.compute_ops += gn.compute_ops;
    }
    std::erase_if(out, [](const MergedPartition& p) { return p.stmts.empty(); });
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedPartition& a, const MergedPartition& b) {
                       return a.cost > b.cost;
                     });
    return out;
  }

 private:
  /// Row-major index into successors_in_ (node rows) or part_edges_
  /// (partition rows); both have one column per partition.
  std::size_t At(int row, int p) const {
    return static_cast<std::size_t>(row) * parts_ + static_cast<std::size_t>(p);
  }

  /// Adds (+1) or removes (-1) the transfer (node, consumer partition q).
  void ToggleTransfer(int node, int q, int sign) {
    const int p = part(node);
    if (q != p && successors_in_[At(node, q)] > 0) {
      transfers_ += sign;
      queue_ops_[static_cast<std::size_t>(p)] += sign;
      queue_ops_[static_cast<std::size_t>(q)] += sign;
    }
  }
  void ToggleTransfers(int node, int sign) {
    for (int q = 0; q < static_cast<int>(parts_); ++q) {
      ToggleTransfer(node, q, sign);
    }
  }

  /// Reassigns `node`, updating every integer term; costs are left alone.
  void Move(int node, int to) {
    const int from = part(node);
    ToggleTransfers(node, -1);
    for (int pred : preds_[static_cast<std::size_t>(node)]) {
      ToggleTransfer(pred, from, -1);
      ToggleTransfer(pred, to, -1);
      --successors_in_[At(pred, from)];
      ++successors_in_[At(pred, to)];
      ToggleTransfer(pred, from, +1);
      ToggleTransfer(pred, to, +1);
      const int p = part(pred);
      if (p != from) {
        --part_edges_[At(p, from)];
      }
      if (p != to) {
        ++part_edges_[At(p, to)];
      }
    }
    for (int succ : succs_[static_cast<std::size_t>(node)]) {
      const int p = part(succ);
      if (p != from) {
        --part_edges_[At(from, p)];
      }
      if (p != to) {
        ++part_edges_[At(to, p)];
      }
    }
    part_[static_cast<std::size_t>(node)] = to;
    --count_[static_cast<std::size_t>(from)];
    ++count_[static_cast<std::size_t>(to)];
    ToggleTransfers(node, +1);
  }

  /// Re-sums partitions `a` and `b` over their nodes in ascending order.
  void Resum(int a, int b) {
    double cost_a = 0.0;
    double cost_b = 0.0;
    for (std::size_t node = 0; node < n_; ++node) {
      if (part_[node] == a) {
        cost_a += graph_.nodes[node].cost;
      } else if (part_[node] == b) {
        cost_b += graph_.nodes[node].cost;
      }
    }
    cost_[static_cast<std::size_t>(a)] = cost_a;
    cost_[static_cast<std::size_t>(b)] = cost_b;
  }

  std::vector<double> Penalties() const {
    std::vector<char> reach(part_edges_.size());
    for (std::size_t i = 0; i < reach.size(); ++i) {
      reach[i] = part_edges_[i] > 0 ? 1 : 0;
    }
    return CyclePenalties(std::move(reach), static_cast<int>(parts_), options_);
  }

  const CodeGraph& graph_;
  const CompileOptions& options_;
  std::size_t n_;
  std::size_t parts_;
  std::vector<int> part_;  // partition of each node
  std::vector<std::vector<int>> succs_;
  std::vector<std::vector<int>> preds_;
  std::vector<int> count_;          // nodes per partition
  std::vector<int> successors_in_;  // node x partition: successors there
  std::vector<int> part_edges_;     // partition x partition: node edges
  std::vector<int> queue_ops_;      // per partition
  int transfers_ = 0;
  std::vector<double> cost_;  // per partition, summed in node order
};

}  // namespace

std::vector<MergedPartition> RefinePartitions(const CodeGraph& graph,
                                              std::vector<MergedPartition> parts,
                                              const CompileOptions& options) {
  if (parts.size() < 2) {
    return parts;
  }
  const int num_parts = static_cast<int>(parts.size());

  // Moves operate on the original (pre-merge) graph nodes: fused statements
  // must move together.
  RefineState state(graph, NodePartitions(graph, parts), num_parts, options);

  // Running partition costs for the balance cap, updated per trial move.
  double total_cost = 0.0;
  std::vector<double> part_cost(static_cast<std::size_t>(num_parts), 0.0);
  for (std::size_t node = 0; node < state.size(); ++node) {
    part_cost[static_cast<std::size_t>(state.part(static_cast<int>(node)))] +=
        graph.nodes[node].cost;
    total_cost += graph.nodes[node].cost;
  }
  const double cost_cap =
      options.balance_cap * total_cost / std::max(1, options.num_cores);

  // First improvement: nodes ascending, then targets ascending; restart
  // after each accepted move.
  for (int round = 0; round < 40; ++round) {
    const auto baseline = state.Objective();
    bool improved = false;
    for (int node = 0; node < static_cast<int>(state.size()) && !improved; ++node) {
      const int from = state.part(node);
      if (!state.OnBoundary(node) || state.count(from) <= 1) {
        continue;
      }
      const double cost = graph.nodes[static_cast<std::size_t>(node)].cost;
      for (int to = 0; to < num_parts; ++to) {
        if (to == from || part_cost[static_cast<std::size_t>(to)] + cost > cost_cap) {
          continue;
        }
        part_cost[static_cast<std::size_t>(from)] -= cost;
        part_cost[static_cast<std::size_t>(to)] += cost;
        if (state.TryMove(node, to, baseline)) {
          improved = true;
          break;  // keep the move
        }
        part_cost[static_cast<std::size_t>(from)] += cost;
        part_cost[static_cast<std::size_t>(to)] -= cost;
      }
    }
    if (!improved) {
      break;
    }
  }
  return state.Partitions();
}

}  // namespace fgpar::compiler
