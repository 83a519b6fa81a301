// Unresolved-call fixture: the checker cannot type `link.dev` (Link
// is declared elsewhere) and two classes define `drain`, so the call
// gets no call-graph edge. That is not a finding; it must be reported
// with its line, its caller and both candidate classes.
#define HAMS_HOT_PATH

struct Link;

struct Disk
{
    void drain() {}
};

struct Tape
{
    void drain() {}
};

struct Engine
{
    HAMS_HOT_PATH void serve(Link& link)
    {
        link.dev.drain(); // HAMSLINT-EXPECT: unresolved
    }
};
