package repl

// DeltaPagesPerFrame exposes the delta frame budget to the external
// tests, which size a commit that must span several frames.
const DeltaPagesPerFrame = deltaPagesPerFrame
