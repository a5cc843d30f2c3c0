package diff

import (
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// IndexNodes exposes an Index's XID map to the external tests.
func IndexNodes(x *Index) map[model.XID]*xmltree.Node { return x.nodes() }
