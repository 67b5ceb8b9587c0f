package decomp

// goldenDigests pins every registry algorithm's exact output (see
// TestGoldenPartitions). Recorded on the pre-CSR adjacency-list graph
// representation; any change here means the decomposition outputs changed.
var goldenDigests = map[string]uint64{
	"ball-carving/gnp300":           0x322358338644356e,
	"elkin-neiman/gnp300":           0x2c534a6385a09786,
	"elkin-neiman/dist/gnp300":      0x2c534a6385a09786,
	"elkin-neiman/theorem1/gnp300":  0x2c534a6385a09786,
	"elkin-neiman/theorem2/gnp300":  0x87b7f20f43157e39,
	"elkin-neiman/theorem3/gnp300":  0x78dc1531b95960f1,
	"linial-saks/gnp300":            0x57e64efaec1d1186,
	"mpx/gnp300":                    0xa89e43ea16dcdb01,
	"mpx/dist/gnp300":               0xa89e43ea16dcdb01,
	"ball-carving/ring128":          0xf00cc956fcdb592f,
	"elkin-neiman/ring128":          0x2a8f1db5f5ee54f3,
	"elkin-neiman/dist/ring128":     0x2a8f1db5f5ee54f3,
	"elkin-neiman/theorem1/ring128": 0x2a8f1db5f5ee54f3,
	"elkin-neiman/theorem2/ring128": 0x96813fb764671bd7,
	"elkin-neiman/theorem3/ring128": 0xfc8c4561d2788721,
	"linial-saks/ring128":           0x500f18faf09e4fc1,
	"mpx/ring128":                   0x18a3bd6b32c78382,
	"mpx/dist/ring128":              0x18a3bd6b32c78382,
	"ball-carving/tree200":          0xf7b389a7280776b0,
	"elkin-neiman/tree200":          0x3b058d069a14ad22,
	"elkin-neiman/dist/tree200":     0x3b058d069a14ad22,
	"elkin-neiman/theorem1/tree200": 0x3b058d069a14ad22,
	"elkin-neiman/theorem2/tree200": 0x3b058d069a14ad22,
	"elkin-neiman/theorem3/tree200": 0x8888c8562cf1c7a1,
	"linial-saks/tree200":           0x1776ac02da8b5d3b,
	"mpx/tree200":                   0xb6437e83a363ead8,
	"mpx/dist/tree200":              0xb6437e83a363ead8,
}

// goldenDocumentDigests pins every registry algorithm's whole MarshalJSON
// document (see TestGoldenDocuments). Any change here means the result
// document changed, not only the clusters.
var goldenDocumentDigests = map[string]uint64{
	"ball-carving/gnp300":           0x8f0bda36a2030d05,
	"elkin-neiman/gnp300":           0xa55335962710c834,
	"elkin-neiman/dist/gnp300":      0xa9572c860c1f2940,
	"elkin-neiman/theorem1/gnp300":  0xa55335962710c834,
	"elkin-neiman/theorem2/gnp300":  0xf05eb6e7ac9b4c56,
	"elkin-neiman/theorem3/gnp300":  0x1cc745e533b038bf,
	"linial-saks/gnp300":            0xfc882c5aa3fe4da5,
	"mpx/gnp300":                    0x277b8915f60e3e9f,
	"mpx/dist/gnp300":               0x0af0d096a6c7417f,
	"ball-carving/ring128":          0xe868008bf24d78aa,
	"elkin-neiman/ring128":          0xd9df264aa8f19806,
	"elkin-neiman/dist/ring128":     0xbf405c3246f2a6a7,
	"elkin-neiman/theorem1/ring128": 0xd9df264aa8f19806,
	"elkin-neiman/theorem2/ring128": 0xfd00a58e1afff3b9,
	"elkin-neiman/theorem3/ring128": 0x2c8d5591feb2924d,
	"linial-saks/ring128":           0xa73571ab22e32a82,
	"mpx/ring128":                   0xaff2963245df658c,
	"mpx/dist/ring128":              0xefbb45f7ccec806f,
	"ball-carving/tree200":          0xee1fcb7df540b566,
	"elkin-neiman/tree200":          0x0a28e4f5990cb607,
	"elkin-neiman/dist/tree200":     0x5f2e618159d8d600,
	"elkin-neiman/theorem1/tree200": 0x0a28e4f5990cb607,
	"elkin-neiman/theorem2/tree200": 0xe2c696668faa1467,
	"elkin-neiman/theorem3/tree200": 0xe6affa8deb66e548,
	"linial-saks/tree200":           0xfc589c6c36beeebe,
	"mpx/tree200":                   0x1ae43cef7bbea02e,
	"mpx/dist/tree200":              0x1b6bfba08e86967f,
}
