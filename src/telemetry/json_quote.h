// The one JSON string quoter: the journal's records, the trace and report
// exporters and the stats stream all quote through it, so they agree on
// every escape.
#ifndef MFC_SRC_TELEMETRY_JSON_QUOTE_H_
#define MFC_SRC_TELEMETRY_JSON_QUOTE_H_

#include <string>
#include <string_view>

namespace mfc {

// Appends |s| as a quoted JSON string: '"' and '\' escaped, \n \t \r as
// short escapes, every other byte below 0x20 as \u00xx (lowercase hex), and
// all other bytes (UTF-8 included) verbatim.
void JsonAppendQuoted(std::string& out, std::string_view s);

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_JSON_QUOTE_H_
