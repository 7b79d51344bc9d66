#include "graph/datasets.h"

#include <cmath>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace pivotscale {

namespace {

NodeId Scaled(double scale, NodeId n) {
  const double v = scale * static_cast<double>(n);
  return v < 16 ? 16 : static_cast<NodeId>(v);
}

// Log2 of the scaled vertex count for RMAT-based analogs.
int ScaledScale(double scale, int base_scale) {
  const int delta = static_cast<int>(std::lround(std::log2(scale)));
  const int s = base_scale + delta;
  return s < 4 ? 4 : s;
}

Dataset DblpLike(double scale) {
  // Co-authorship graphs are unions of small near-cliques (one per paper).
  // DBLP is the suite's smallest graph (0.3M vertices vs 1.7M+ for the
  // rest); the analog mirrors that so the heuristic's size gate excludes
  // exactly this graph, and so it plays DBLP's "too small to parallelize"
  // role in the scaling study.
  const NodeId n = Scaled(scale, 12000);
  EdgeList edges = CommunityModel(n, Scaled(scale, 3600), 3, 8,
                                  /*intra_p=*/1.0, /*seed=*/0xdb1f);
  PlantCliques(&edges, n, Scaled(scale, 16), 8, 20, 0xdb2f);
  PlantCliques(&edges, n, 1, 25, 25, 0xdb3f);  // the k_max clique
  EdgeList noise = GnM(n, Scaled(scale, 6000), 0xdb4f);
  edges.insert(edges.end(), noise.begin(), noise.end());
  ShuffleVertexIds(&edges, n, 0x5f5f + 0);
  return {"dblp-like", "DBLP",
          "co-authorship style: many small overlapping cliques",
          BuildGraph(std::move(edges), n)};
}

Dataset SkitterLike(double scale) {
  // Internet topology: heavy-tailed RMAT plus mid-size cliques at exchange
  // points, which make the graph strongly assortative at the top.
  const int s = ScaledScale(scale, 16);
  const NodeId n = NodeId{1} << s;
  EdgeList edges = Rmat(s, 10.0, 0x5711);
  PlantCliques(&edges, n / 8, 40, 5, 25, 0x5722);  // clustered in hot ids
  PlantCliques(&edges, n / 8, 2, 40, 44, 0x5733);
  ShuffleVertexIds(&edges, n, 0x5f5f + 1);
  return {"skitter-like", "As-Skitter",
          "power-law internet topology with mid-size planted cliques",
          BuildGraph(std::move(edges), n)};
}

Dataset BaiduLike(double scale) {
  // Web-link graph: skewed degrees but little clique structure, and low
  // assortativity (hubs link to low-degree pages).
  const int s = ScaledScale(scale, 16);
  const NodeId n = NodeId{1} << s;
  EdgeList edges = Rmat(s, 14.0, 0.45, 0.25, 0.20, 0xba1d);
  PlantCliques(&edges, n, 10, 4, 10, 0xba2d);
  ShuffleVertexIds(&edges, n, 0x5f5f + 2);
  return {"baidu-like", "Baidu",
          "web links: skewed but clique-poor, low assortativity",
          BuildGraph(std::move(edges), n)};
}

Dataset WikitalkLike(double scale) {
  // Talk-page graph: a few dozen hubs (admins/bots) touching much of the
  // graph, plus moderate cliques among active editors.
  const NodeId n = Scaled(scale, 60000);
  const NodeId hubs = 30;
  // hubs * leaf_fraction * n total hub-leaf edges ~= 2n gives delta ~= 2 from
  // hubs; planted cliques bring the average near Wiki-Talk's ~4.
  const double leaf_fraction = 2.0 / static_cast<double>(hubs);
  EdgeList edges = StarHeavy(n, hubs, leaf_fraction, 0x111c);
  // Active-editor tier: a moderately dense blob of mid-degree vertices.
  // This is what separates the orderings on Wiki-Talk — under a degree
  // ordering the low-ranked actives direct edges at most of their
  // (higher-degree) peers, inflating the max out-degree well above the
  // blob's coreness.
  const NodeId actives = 250;
  EdgeList blob = ErdosRenyi(actives, 0.4, 0x113c);
  for (Edge& e : blob) {
    e.first += hubs;
    e.second += hubs;
  }
  edges.insert(edges.end(), blob.begin(), blob.end());
  Rng active_rng(0x114c);
  for (NodeId a = hubs; a < hubs + actives; ++a)
    for (int j = 0; j < 8; ++j)
      edges.emplace_back(a, static_cast<NodeId>(active_rng.Below(hubs)));
  PlantCliques(&edges, n / 16, 60, 4, 18, 0x112c);
  ShuffleVertexIds(&edges, n, 0x5f5f + 3);
  return {"wikitalk-like", "Wiki-Talk",
          "hub-dominated broadcast graph with moderate cliques",
          BuildGraph(std::move(edges), n)};
}

Dataset OrkutLike(double scale) {
  // Dense social network: high average degree and strong community
  // structure, many mid-size cliques.
  const int s = ScaledScale(scale, 14);
  const NodeId n = NodeId{1} << s;
  EdgeList edges = Rmat(s, 24.0, 0x04c1);
  EdgeList comm =
      CommunityModel(n, Scaled(scale, 1500), 4, 10, 0.7, 0x0421);
  edges.insert(edges.end(), comm.begin(), comm.end());
  PlantCliques(&edges, n / 2, 15, 8, 22, 0x0422);
  ShuffleVertexIds(&edges, n, 0x5f5f + 4);
  return {"orkut-like", "Orkut",
          "dense social network with community structure",
          BuildGraph(std::move(edges), n)};
}

Dataset LivejournalLike(double scale) {
  // The combinatorially hard graph: many large overlapping cliques
  // concentrated in a hot region, so clique counts explode with k.
  const NodeId n = Scaled(scale, 30000);
  EdgeList edges = GnM(n, Scaled(scale, 120000), 0x11ff);
  // A dense random core drives the LiveJournal signature: deep, branching
  // Bron-Kerbosch trees whose exploration deepens with the target k, so
  // counting time climbs steeply with k. The density is calibrated so the
  // core's maximal cliques exceed the largest k swept (13) — any lower and
  // the k-potential prune kills the trees early and time *falls* with k;
  // much higher and single-core runs take hours. Planted cliques set k_max.
  const NodeId hot = std::max<NodeId>(64, n / 176);
  EdgeList overlay = ErdosRenyi(hot, 0.70, 0x14ff);
  edges.insert(edges.end(), overlay.begin(), overlay.end());
  PlantCliques(&edges, hot, 2, 30, 34, 0x13ff);
  ShuffleVertexIds(&edges, n, 0x5f5f + 5);
  return {"livejournal-like", "LiveJournal",
          "clique-rich social network: combinatorial explosion with k",
          BuildGraph(std::move(edges), n)};
}

Dataset WebeduLike(double scale) {
  // .edu web crawl: extremely sparse overall, but contains one huge clique
  // (template-generated page families) dominating k_max.
  const NodeId n = Scaled(scale, 100000);
  EdgeList edges = GnM(n, Scaled(scale, 120000), 0xed00);
  PlantCliques(&edges, n, 1, 110, 110, 0xed01);
  PlantCliques(&edges, n, 6, 20, 60, 0xed02);
  ShuffleVertexIds(&edges, n, 0x5f5f + 6);
  return {"webedu-like", "Web-Edu",
          "very sparse web graph with one huge planted clique",
          BuildGraph(std::move(edges), n)};
}

Dataset FriendsterLike(double scale) {
  // The largest suite member: high degree, comparatively clique-poor, low
  // assortativity at the top — the regime where the degree ordering wins.
  const int s = ScaledScale(scale, 17);
  const NodeId n = NodeId{1} << s;
  EdgeList edges = Rmat(s, 18.0, 0.50, 0.22, 0.19, 0xf41e);
  PlantCliques(&edges, n, 15, 5, 20, 0xf42e);
  ShuffleVertexIds(&edges, n, 0x5f5f + 7);
  return {"friendster-like", "Friendster",
          "largest graph: high degree, relatively clique-poor",
          BuildGraph(std::move(edges), n)};
}

}  // namespace

const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> names = {
      "dblp-like",  "skitter-like",     "baidu-like",  "wikitalk-like",
      "orkut-like", "livejournal-like", "webedu-like", "friendster-like"};
  return names;
}

Dataset MakeDataset(const std::string& name, double scale) {
  if (scale <= 0 || scale > 4)
    throw std::invalid_argument("MakeDataset: scale out of (0, 4]");
  if (name == "dblp-like") return DblpLike(scale);
  if (name == "skitter-like") return SkitterLike(scale);
  if (name == "baidu-like") return BaiduLike(scale);
  if (name == "wikitalk-like") return WikitalkLike(scale);
  if (name == "orkut-like") return OrkutLike(scale);
  if (name == "livejournal-like") return LivejournalLike(scale);
  if (name == "webedu-like") return WebeduLike(scale);
  if (name == "friendster-like") return FriendsterLike(scale);
  throw std::invalid_argument("MakeDataset: unknown dataset " + name);
}

}  // namespace pivotscale
