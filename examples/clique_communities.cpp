// k-clique percolation community detection (Palla et al., Nature 2005) —
// one of the clique-counting applications the paper's introduction cites.
//
// Two k-cliques are adjacent if they share k-1 vertices; communities are
// the connected components of that adjacency. This example enumerates
// k-cliques with the library's DAG enumeration (listing, not just
// counting), unions adjacent cliques, and prints the community size
// distribution. PivotScale's counting pass is used first to pick a k small
// enough for enumeration to be cheap — exactly the counting-before-listing
// workflow the clique-counting literature recommends.
//
// Usage: clique_communities [--graph path.el] [--k 4]
#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>
#include <vector>

#include "pivotscale.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pivotscale;

namespace {

// Disjoint-set union over clique ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  std::vector<std::size_t> parent_;
};

// Lists all k-cliques via the canonical DAG extension (same recursion as
// the enumeration baseline, but materializing members).
void ListCliques(const Graph& dag, std::uint32_t k,
                 std::vector<std::vector<NodeId>>* out) {
  std::vector<std::uint32_t> label(dag.NumNodes(), 0);
  std::vector<std::vector<NodeId>> bufs(k + 1);
  std::vector<NodeId> chosen;

  struct Rec {
    const Graph& dag;
    std::uint32_t k;
    std::vector<std::uint32_t>& label;
    std::vector<std::vector<NodeId>>& bufs;
    std::vector<NodeId>& chosen;
    std::vector<std::vector<NodeId>>* out;
    void Go(std::uint32_t depth) {
      const auto& cand = bufs[depth];
      if (depth == k) {
        for (NodeId w : cand) {
          chosen.push_back(w);
          out->push_back(chosen);
          chosen.pop_back();
        }
        return;
      }
      auto& next = bufs[depth + 1];
      for (NodeId u : cand) {
        next.clear();
        for (NodeId w : dag.Neighbors(u))
          if (label[w] == depth) {
            label[w] = depth + 1;
            next.push_back(w);
          }
        chosen.push_back(u);
        Go(depth + 1);
        chosen.pop_back();
        for (NodeId w : next) label[w] = depth;
      }
    }
  } rec{dag, k, label, bufs, chosen, out};

  for (NodeId v = 0; v < dag.NumNodes(); ++v) {
    if (k == 1) {
      out->push_back({v});
      continue;
    }
    auto& cand = bufs[2];
    cand.clear();
    for (NodeId u : dag.Neighbors(v)) {
      cand.push_back(u);
      label[u] = 2;
    }
    chosen.assign(1, v);
    rec.Go(2);
    chosen.clear();
    for (NodeId u : cand) label[u] = 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto k = args.GetK(4);
  const std::string path = args.GetString("graph", "");

  Graph g;
  if (!path.empty()) {
    g = LoadGraph(path);
  } else {
    EdgeList edges = CommunityModel(/*n=*/3000, /*communities=*/500,
                                    /*min_size=*/4, /*max_size=*/9,
                                    /*intra_p=*/0.9, /*seed=*/11);
    EdgeList noise = GnM(3000, 2000, 12);
    edges.insert(edges.end(), noise.begin(), noise.end());
    g = BuildGraph(std::move(edges));
  }

  // Counting first: if there are billions of k-cliques, listing them is
  // hopeless and the user should raise k or shrink the graph.
  const BigCount count = CountKCliquesSimple(g, k);
  std::cout << g.NumNodes() << " vertices, " << g.NumUndirectedEdges()
            << " edges; " << count.ToString() << " " << k << "-cliques\n";
  if (count > BigCount(5'000'000)) {
    std::cout << "too many cliques to list; raise --k\n";
    return 1;
  }

  const Graph dag = Directionalize(g, CoreOrdering(g).ranks);
  std::vector<std::vector<NodeId>> cliques;
  ListCliques(dag, k, &cliques);

  // Percolation: cliques sharing k-1 vertices are unioned. Index cliques
  // by each (k-1)-subset via sorting: two cliques sharing k-1 vertices
  // share a subset key.
  UnionFind uf(cliques.size());
  std::map<std::vector<NodeId>, std::size_t> subset_owner;
  std::vector<NodeId> key;
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    std::vector<NodeId> members = cliques[c];
    std::sort(members.begin(), members.end());
    for (std::uint32_t skip = 0; skip < k; ++skip) {
      key.clear();
      for (std::uint32_t i = 0; i < k; ++i)
        if (i != skip) key.push_back(members[i]);
      const auto [it, inserted] = subset_owner.try_emplace(key, c);
      if (!inserted) uf.Union(c, it->second);
    }
  }

  // Community = set of vertices of all cliques in one component.
  std::map<std::size_t, std::vector<NodeId>> communities;
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    auto& verts = communities[uf.Find(c)];
    verts.insert(verts.end(), cliques[c].begin(), cliques[c].end());
  }
  std::map<std::size_t, std::size_t> size_histogram;
  for (auto& [root, verts] : communities) {
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    ++size_histogram[verts.size()];
  }

  TablePrinter table(
      std::to_string(k) + "-clique percolation communities (" +
          std::to_string(communities.size()) + " total from " +
          std::to_string(cliques.size()) + " cliques)",
      {"community size (vertices)", "count"});
  for (const auto& [size, n] : size_histogram)
    table.AddRow({TablePrinter::Cell(std::uint64_t{size}),
                  TablePrinter::Cell(std::uint64_t{n})});
  table.Print();
  return 0;
}
