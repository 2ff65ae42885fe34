package httpsim

// RenderResponse exposes the server's response encoder to the external
// fuzz test, which needs a world's traffic for seeds and so cannot live
// inside the package.
var RenderResponse = renderResponse
