package analysis

// TopKBySize exposes the top_k ranking to the external tests, which hold it
// to a sorting referee.
var TopKBySize = topKBySize
