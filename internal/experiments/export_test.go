package experiments

// EarthPlusSpec exposes the Earth+ spec builder to the external flag
// tests, which import the cli package (and so cannot live in package
// experiments without an import cycle).
var EarthPlusSpec = earthPlusSpec
