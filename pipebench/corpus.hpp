// The checked-in spec lists (corpus/*.tsv) the workloads compile.
#pragma once

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "words/alphabet.hpp"

namespace pipebench {

struct Spec {
  std::string name;
  slat::words::Alphabet alphabet;
  /// States of the minimal good-prefix DFA at the seed commit: the
  /// minimal monitor of lcl(L) is canonical, so no change may move it.
  int expected_dfa_states = 0;
  std::string formula;
};

/// "ab" = the binary {a, b} of the paper's Rem examples; K = the 2^K
/// valuations of propositions p0..pK-1.
inline slat::words::Alphabet parse_alphabet(const std::string& tag) {
  if (tag == "ab") return slat::words::Alphabet::binary();
  int k = 0;
  try {
    k = std::stoi(tag);
  } catch (const std::exception&) {
    throw std::runtime_error("bad alphabet '" + tag + "'");
  }
  if (k < 1 || k > 8) throw std::runtime_error("alphabet needs 1..8 propositions: " + tag);
  std::vector<std::string> aps;
  for (int i = 0; i < k; ++i) aps.push_back(std::string("p").append(std::to_string(i)));
  return slat::words::Alphabet::of_aps(std::move(aps));
}

/// Reads a spec list: '#' comment lines, then one spec per line with the
/// tab-separated columns name, family, alphabet, expected DFA states,
/// formula, reason. Throws std::runtime_error on a malformed file.
inline std::vector<Spec> load_specs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Spec> specs;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cols;
    std::stringstream fields(line);
    for (std::string col; std::getline(fields, col, '\t');) cols.push_back(col);
    if (cols.size() != 6) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": expected 6 columns");
    }
    Spec spec{cols[0], parse_alphabet(cols[2]), 0, cols[4]};
    try {
      spec.expected_dfa_states = std::stoi(cols[3]);
    } catch (const std::exception&) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": bad state count");
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) throw std::runtime_error(path + ": no specs");
  return specs;
}

}  // namespace pipebench
