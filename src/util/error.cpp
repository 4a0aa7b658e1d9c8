#include "util/error.hpp"

namespace hpmm::detail {

void throw_check_failure(bool internal, std::string_view message,
                         const std::source_location& loc) {
  std::string text = std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": ";
  text += message;
  if (internal) throw InternalError(text);
  throw PreconditionError(text);
}

}  // namespace hpmm::detail
