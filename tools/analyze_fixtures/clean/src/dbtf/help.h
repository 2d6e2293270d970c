// Fixture: seam patterns inside string literals are text, not code. A
// scanner that strips only comments would flag every literal below.
#ifndef FIXTURE_HELP_H_
#define FIXTURE_HELP_H_

namespace dbtf {

inline const char* kRetryHelp =
    "a retry never calls sleep(1) and no caller waits on a std::future";
inline const char* kRawHelp = R"(std::thread t; fork(); fopen("x", "w");)";

}  // namespace dbtf

#endif  // FIXTURE_HELP_H_
