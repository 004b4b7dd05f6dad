// External dataset adapter: `localfs` delimited-text and ADM/JSON files
// made queryable in situ (paper §III item 6, Fig. 3(b)). The paper's HDFS
// support is substituted by the local filesystem — the adapter abstraction
// is identical, only the byte source differs.
#pragma once

#include <string>
#include <vector>

#include "adm/type.h"
#include "asterix/metadata.h"
#include "common/result.h"

namespace asterix::external {

/// Read every record of the external dataset into memory, converting each
/// row to an ADM object per the declared type. Supported properties:
///   "path"       local path, optionally "localhost://"-prefixed
///   "format"     "delimited-text" (default) or "adm"/"json"
///   "delimiter"  single character (default ',') for delimited-text
Result<std::vector<adm::Value>> ReadExternalDataset(const meta::DatasetDef& def,
                                                    const adm::TypePtr& type);

/// Export records to a CSV file (the §V-D round-trip feature users asked
/// for: CSV import existed, export was added on demand).
Status ExportCsv(const std::vector<adm::Value>& records,
                 const std::vector<std::string>& columns,
                 const std::string& path, char delimiter = ',');

}  // namespace asterix::external
