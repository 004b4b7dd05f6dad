// Parser for ADM text syntax: JSON extended with multiset constructors
// `{{ ... }}`, typed constructors (datetime("..."), date("..."), time("..."),
// duration("..."), point("x,y"), rectangle("x1,y1 x2,y2")), and the literals
// `missing`/`null`. Plain JSON is a subset and parses unchanged.
#pragma once

#include <string>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::adm {

/// Parse one ADM value from `text`. Trailing whitespace is permitted;
/// any other trailing content is an error, and so is a value nested more
/// than `max_depth` deep.
Result<Value> ParseAdm(const std::string& text,
                       size_t max_depth = kMaxInputDepth);

/// Parse one ADM value starting at `*pos`; on success `*pos` is advanced
/// past the value. Lets callers parse newline-delimited streams.
Result<Value> ParseAdmPrefix(const std::string& text, size_t* pos);

}  // namespace asterix::adm
