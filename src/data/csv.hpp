// Schema-aware CSV serialization for datasets.
//
// Format: one header line describing the columns, then one line per record.
//   header column:  <name>:cont            continuous attribute
//                   <name>:cat:<K>         categorical attribute, K values
//                   class:<C>              label column (must be last)
//   example:        salary:cont,elevel:cat:5,class:2
// Categorical values and labels are written as integer codes. The full
// rules, including what the reader rejects, are in docs/formats.md.
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace scalparc::data {

void write_csv(const Dataset& dataset, std::ostream& out);
void write_csv_file(const Dataset& dataset, const std::string& path);

// Throws std::runtime_error on malformed headers or rows. The message is
// "csv: <path>:<line>:<column>: <what>" for the first bad cell in file order
// ("<stream>" stands for the path when reading an istream).
Dataset read_csv(std::istream& in);

// Reads `path` as `parts` horizontal partitions: the body is cut into
// `parts` byte ranges at line boundaries and each range is parsed on its own
// thread straight into its slice of the rows. The result, and the error
// reported for bad input, are the same for every `parts` >= 1.
Dataset read_csv_file(const std::string& path, int parts = 1);

}  // namespace scalparc::data
