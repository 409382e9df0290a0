package wrapper

// CheckDesignerMatchesFit lets the external test package, which can import
// the built-in benchmark chips, run the Designer-versus-Fit check.
var CheckDesignerMatchesFit = checkDesignerMatchesFit
