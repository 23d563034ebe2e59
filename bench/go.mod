// The benchmark is a module of its own so that it builds, vets and tests
// apart from the program it measures; the replace makes "sosf" the
// checkout it sits in, and the path prefix lets it import sosf/internal/*.
module sosf/bench

go 1.22

require sosf v0.0.0

replace sosf => ../
