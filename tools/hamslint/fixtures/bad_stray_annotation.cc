// Known-bad fixture: an annotation written before an access specifier
// or a member variable annotates nothing. The access specifier ends the
// declaration run, so grow() below is not a root and its allocation is
// not checked; the stray annotations themselves are reported instead.
#define HAMS_HOT_PATH
#define HAMS_COLD_PATH
#include <vector>

class Engine
{
  public:
    HAMS_HOT_PATH int size() const { return int(arena.size()); }

  HAMS_HOT_PATH private: // HAMSLINT-EXPECT: annotation
    void grow() { arena.push_back(0); }

    HAMS_COLD_PATH std::vector<int> arena; // HAMSLINT-EXPECT: annotation
};
