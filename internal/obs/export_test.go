package obs

// FormatValue exposes the exposition's number rendering to the external
// test package.
var FormatValue = formatValue
