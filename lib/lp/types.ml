type sense = Le | Ge | Eq

type objective = Maximize | Minimize
