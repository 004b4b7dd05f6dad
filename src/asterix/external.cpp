#include "asterix/external.h"

#include <cstdlib>

#include "adm/delimited.h"
#include "adm/json.h"
#include "common/io.h"

namespace asterix::external {

using adm::Value;

Result<std::vector<Value>> ReadExternalDataset(const meta::DatasetDef& def,
                                               const adm::TypePtr& type) {
  auto it = def.external_props.find("path");
  if (it == def.external_props.end()) {
    return Status::InvalidArgument("external dataset '" + def.name +
                                   "' lacks a path property");
  }
  std::string path = it->second;
  const std::string kPrefix = "localhost://";
  if (path.rfind(kPrefix, 0) == 0) path = path.substr(kPrefix.size());

  std::string format = "delimited-text";
  if (auto fit = def.external_props.find("format");
      fit != def.external_props.end()) {
    format = fit->second;
  }
  char delimiter = ',';
  if (auto dit = def.external_props.find("delimiter");
      dit != def.external_props.end() && !dit->second.empty()) {
    delimiter = dit->second[0];
  }

  AX_ASSIGN_OR_RETURN(std::string content, fs::ReadFileToString(path));
  std::vector<Value> out;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    std::string line = content.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? content.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (format == "adm" || format == "json") {
      AX_ASSIGN_OR_RETURN(Value v, adm::ParseAdm(line));
      out.push_back(std::move(v));
    } else {
      AX_ASSIGN_OR_RETURN(Value v, adm::ParseDelimitedLine(line, delimiter, type));
      out.push_back(std::move(v));
    }
  }
  return out;
}

Status ExportCsv(const std::vector<Value>& records,
                 const std::vector<std::string>& columns,
                 const std::string& path, char delimiter) {
  std::string out;
  for (size_t i = 0; i < columns.size(); i++) {
    if (i) out.push_back(delimiter);
    out += columns[i];
  }
  out.push_back('\n');
  for (const auto& rec : records) {
    for (size_t i = 0; i < columns.size(); i++) {
      if (i) out.push_back(delimiter);
      const Value& v = rec.GetField(columns[i]);
      if (v.is_string()) {
        out += v.AsString();
      } else if (!v.is_missing()) {
        out += v.ToString();
      }
    }
    out.push_back('\n');
  }
  return fs::WriteStringToFile(path, out);
}

}  // namespace asterix::external
